//===-- serve/Traffic.h - Workload spec and query generator ---*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A genny-style declarative traffic model for the query engine: a
/// QueryWorkload fixes the client count, per-client volume (or duration),
/// query-mix ratios and key distribution, and QueryGenerator turns it
/// into each client's deterministic query stream. net::runTraffic
/// (net/TrafficDriver.h) replays it with real client threads.
///
/// Spec files are "key = value" lines ('#' comments). Example:
///
///   clients = 8
///   queries_per_client = 5000
///   seed = 42
///   zipf_s = 1.1          # 0 = uniform keys
///   weight_points_to = 4
///   weight_alias = 2
///   weight_devirt = 1
///   weight_cast_may_fail = 1
///   weight_callers = 1
///   weight_callees = 1
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_SERVE_TRAFFIC_H
#define MAHJONG_SERVE_TRAFFIC_H

#include "serve/QueryEngine.h"

#include <string>
#include <string_view>

namespace mahjong::serve {

/// Declarative description of one traffic run.
struct QueryWorkload {
  unsigned Clients = 4;
  uint64_t QueriesPerClient = 1000;
  /// When > 0, clients run for this long instead of a fixed count.
  double DurationSeconds = 0;
  uint64_t Seed = 1;
  /// Zipf skew of key ranks (s parameter); 0 selects uniform keys.
  double ZipfS = 0;
  /// When > 0 the driver emits a progress heartbeat line at this period
  /// (spec key: heartbeat_seconds). 0 disables it.
  double HeartbeatSeconds = 0;
  /// Reopen each client's channel every this many queries (connection
  /// churn). 0 = one channel per client for the run.
  uint64_t ChurnEvery = 0;
  /// Phased ramp — client C starts C * ramp_seconds into the run.
  /// 0 = all clients start together.
  double RampSeconds = 0;
  /// Requests whose end-to-end latency reaches this many microseconds
  /// count as slow queries in the report (spec key: slow_query_us).
  /// 0 disables the client-side count.
  uint64_t SlowQueryMicros = 0;
  /// Relative frequencies of the query kinds.
  unsigned WeightPointsTo = 4;
  unsigned WeightAlias = 2;
  unsigned WeightDevirt = 1;
  unsigned WeightCastMayFail = 1;
  unsigned WeightCallers = 1;
  unsigned WeightCallees = 1;
};

/// Parses a spec file body. Unknown keys and malformed lines are errors.
bool parseWorkloadSpec(std::string_view Text, QueryWorkload &W,
                       std::string &Err);

/// Deterministic query-text generator over a snapshot: kind by mix
/// weights, keys by the configured rank distribution. Each client owns
/// one generator seeded by (workload seed, client index).
class QueryGenerator {
public:
  QueryGenerator(const SnapshotData &D, const QueryWorkload &W,
                 unsigned Client);

  /// Produces the next query text. Never fails: kinds without any valid
  /// key in the snapshot fall back to points-to. When \p KindOut is
  /// non-null it receives the kind actually emitted (after fallback).
  std::string next(QueryKind *KindOut = nullptr);

private:
  uint64_t nextRand();
  /// Rank in [0, N) — uniform or Zipf depending on the workload.
  size_t pickRank(size_t N);

  const SnapshotData &D;
  const QueryWorkload &W;
  uint64_t RngState;
  unsigned TotalWeight;
  std::vector<double> ZipfCdf; ///< lazily sized per key-pool maximum
};

} // namespace mahjong::serve

#endif // MAHJONG_SERVE_TRAFFIC_H
