//===-- net/RequestExecutor.h - What one serving request means -*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving tier's one request path, independent of how the request
/// arrived: verb dispatch (data queries, `stats`, `health`, `trace-dump`,
/// ping), one SnapshotRegistry::pin() per request, the digest/epoch stamp
/// of the pinned snapshot on every answer, and the net.* request counters
/// and latency histograms.
///
/// SnapshotServer runs every request it parses off a socket through one
/// executor; the traffic driver's loopback transport calls one directly.
/// Sockets, framing, queues, swaps and the slow-query log stay in the
/// server, so both callers answer identically by construction.
///
/// Metric references are resolved once, at construction (the registry
/// hands out stable references), so the request path never takes the
/// registry's name-lookup lock.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_NET_REQUESTEXECUTOR_H
#define MAHJONG_NET_REQUESTEXECUTOR_H

#include "net/Protocol.h"
#include "net/SnapshotRegistry.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace mahjong::net {

/// Steady-clock nanoseconds: the time base of every request stamp.
uint64_t nowNs();

class RequestExecutor {
public:
  /// \p Recorder (optional, not owned, must outlive the executor) backs
  /// `trace-dump`, the flight.* gauges and the health verb's
  /// flight_recorder field.
  RequestExecutor(SnapshotRegistry &Registry, obs::MetricsRegistry &Metrics,
                  const obs::FlightRecorder *Recorder = nullptr);

  /// Answers one request against a freshly pinned snapshot. \p ParsedNs
  /// is when the caller parsed it and \p ExecStartNs when it hands it
  /// over: the gap is recorded in net.queue_delay_ns, parse to answer in
  /// net.request_ns. Safe to call from many threads.
  Response execute(MsgType Type, std::string_view Text, uint64_t ParsedNs,
                   uint64_t ExecStartNs);

  /// Recomputes the derived gauges (swap count, retired snapshots, epoch,
  /// flight-recorder occupancy) so a metrics export sees current values.
  /// The `stats` verb does this itself.
  void refreshGauges() const;

private:
  /// Dispatches one non-ping request on its verb.
  void answer(const ServingSnapshot &Snap, std::string_view Text,
              Response &R) const;
  std::string healthText(const ServingSnapshot &Snap) const;

  SnapshotRegistry &Registry;
  obs::MetricsRegistry &Metrics;
  const obs::FlightRecorder *Recorder;
  std::chrono::steady_clock::time_point StartedAt;

  obs::Counter &Queries;
  obs::Counter &QueryErrors;
  obs::Counter &SlowQueries;
  obs::Gauge &ActiveConns;
  LogHistogram &QueueDelayNs;
  LogHistogram &RequestNs;
};

} // namespace mahjong::net

#endif // MAHJONG_NET_REQUESTEXECUTOR_H
