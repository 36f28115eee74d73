//===-- obs/Metrics.h - Named counters, gauges, histograms ----*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A metrics registry: named monotonic counters, gauges, and
/// log-bucketed histograms (support/Histogram.h), exported as stable
/// sorted-key JSON and as Prometheus text exposition. The registry is the
/// common surface behind `analyze --metrics-out` and the serve-side
/// `stats` query verb; pta::exportStats (PointerAnalysis.h) publishes
/// every PTAStats field through it.
///
/// Thread safety: name lookup takes a mutex; the returned references are
/// stable for the registry's lifetime and their mutators are atomic, so
/// the pattern "resolve once, update from many threads" is safe.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_OBS_METRICS_H
#define MAHJONG_OBS_METRICS_H

#include "support/Histogram.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace mahjong::obs {

/// A monotonic (by convention) unsigned counter.
class Counter {
public:
  void inc(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  void set(uint64_t N) { V.store(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// A point-in-time floating-point value (phase seconds, occupancy, ...).
class Gauge {
public:
  void set(double X) { V.store(X, std::memory_order_relaxed); }
  double value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<double> V{0};
};

/// Owns metrics by name. Export iterates std::map, so both formats list
/// names in sorted order — byte-stable for golden tests and diffs.
class MetricsRegistry {
public:
  Counter &counter(std::string_view Name);
  Gauge &gauge(std::string_view Name);
  LogHistogram &histogram(std::string_view Name);

  /// One JSON object, pretty-printed one entry per line:
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with each
  /// section's keys sorted. Histograms carry count/sum/max/mean,
  /// p50/p95/p99 midpoint estimates, and non-empty [lower_bound, count]
  /// bucket pairs.
  std::string toJson() const;

  /// Prometheus text exposition (# TYPE lines, cumulative `le` buckets,
  /// _sum and _count series). Metric names are sanitized ('.' -> '_').
  std::string toPrometheus() const;

private:
  mutable std::mutex Mu;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> Gauges;
  std::map<std::string, std::unique_ptr<LogHistogram>, std::less<>> Histograms;
};

} // namespace mahjong::obs

#endif // MAHJONG_OBS_METRICS_H
