//===-- net/TrafficDriver.h - Closed-loop traffic replay ------*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve-bench's driver: replays a serve::QueryWorkload with real client
/// threads, each a closed loop (generate, round-trip, record), and reports
/// QPS, end-to-end p50/p95/p99 overall and per query kind, the digests and
/// epochs that answered, and connection counts. The workload's
/// churn_every / ramp_seconds knobs reopen channels and stagger clients.
///
/// The driver sees the answering side only through a Transport: open a
/// per-client Channel, round-trip one request into a net::Response,
/// close. Two transports exist — LoopbackTransport (a RequestExecutor
/// over an in-process SnapshotRegistry) and SocketTransport (net::Client
/// against a live SnapshotServer) — and both run the same request path,
/// so the two modes differ in transport cost only. Server-side numbers
/// (queue-delay percentiles, cache counters) come from one final `health`
/// round trip through the same transport.
///
/// Query keys are generated from a locally held snapshot (the one the
/// answering side serves), so the stream is identical in both modes.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_NET_TRAFFICDRIVER_H
#define MAHJONG_NET_TRAFFICDRIVER_H

#include "net/RequestExecutor.h"
#include "serve/Traffic.h"

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace mahjong::net {

/// One client's ordered request stream. Destroying it closes it.
class Channel {
public:
  virtual ~Channel() = default;
  /// One query round trip. \returns false with \p Err set on a transport
  /// failure; a query the server rejected returns true with R.Ok false.
  virtual bool roundTrip(std::string_view Text, Response &R,
                         std::string &Err) = 0;
};

/// Opens channels to whatever answers the driver's queries.
class Transport {
public:
  virtual ~Transport() = default;
  /// \returns null with a diagnostic in \p Err when no channel opens.
  virtual std::unique_ptr<Channel> open(std::string &Err) = 0;
};

/// In-process: each round trip runs the executor on the calling thread,
/// with no socket, framing or queue in between.
class LoopbackTransport final : public Transport {
public:
  explicit LoopbackTransport(SnapshotRegistry &Registry)
      : Exec(Registry, Metrics) {}
  std::unique_ptr<Channel> open(std::string &Err) override;

private:
  obs::MetricsRegistry Metrics;
  RequestExecutor Exec;
};

/// A live SnapshotServer: each channel is one net::Client connection.
class SocketTransport final : public Transport {
public:
  SocketTransport(std::string Host, uint16_t Port)
      : Host(std::move(Host)), Port(Port) {}
  std::unique_ptr<Channel> open(std::string &Err) override;

private:
  std::string Host;
  uint16_t Port;
};

/// What one replay measured. Percentiles come from log-bucketed
/// histograms (bucket midpoints), so memory stays O(1) in the query
/// count.
struct TrafficReport {
  uint64_t Queries = 0;
  uint64_t Failed = 0;          ///< answers with Ok == false
  uint64_t TransportErrors = 0; ///< channel open / round-trip failures
  uint64_t Connections = 0;     ///< channels opened (churn included)
  uint64_t Reconnects = 0;      ///< churn-driven reopens only
  double Seconds = 0;
  double QPS = 0;
  double P50Micros = 0;
  double P95Micros = 0;
  double P99Micros = 0;
  /// From the final `health` answer: the answering side's parsed-to-
  /// executing delay, and its pinned engine's cache counters. Zero when
  /// that round trip fails.
  double QueueDelayP50Micros = 0;
  double QueueDelayP95Micros = 0;
  double QueueDelayP99Micros = 0;
  serve::QueryCache::Stats Cache;
  /// Round trips whose client-observed latency reached the workload's
  /// slow_query_us (always 0 when the threshold is unset).
  uint64_t SlowQueries = 0;
  struct KindLatency {
    uint64_t Count = 0;
    double P50Micros = 0;
    double P95Micros = 0;
    double P99Micros = 0;
  };
  KindLatency Kinds[serve::NumDataQueryKinds]; ///< indexed by QueryKind
  /// Distinct snapshot digests that answered, sorted; more than one means
  /// a hot swap landed mid-run.
  std::vector<uint64_t> DigestsSeen;
  uint32_t EpochMin = 0, EpochMax = 0;

  /// One JSON object, stable key order, for scripts and CI assertions.
  std::string toJson() const;
};

/// Replays \p W through \p T with W.Clients threads; \p KeyData supplies
/// the key pools. When \p Progress is non-null and W.HeartbeatSeconds > 0,
/// a heartbeat thread prints "[serve-bench] t=... queries=... qps=..."
/// lines to it at that period while the clients run.
TrafficReport runTraffic(const serve::SnapshotData &KeyData,
                         const serve::QueryWorkload &W, Transport &T,
                         std::ostream *Progress = nullptr);

} // namespace mahjong::net

#endif // MAHJONG_NET_TRAFFICDRIVER_H
