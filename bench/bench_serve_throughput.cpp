//===-- bench/bench_serve_throughput.cpp --------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Serving throughput: one mid-size program is analyzed once, snapshotted,
// and then queried three ways —
//
//   naive  re-run the whole analysis for every query (what a build tool
//          without snapshots effectively does),
//   cold   a freshly decoded snapshot + empty cache per stream,
//   warm   the same engine again, cache already populated.
//
// Both streams run through the traffic driver's loopback transport, so
// they pay the serving request path (pin, dispatch, metrics) but no
// socket. Each report's cache counters are the engine's running totals.
//
// Output is one JSON object (QPS + p50/p95/p99 per stream) so scripts can
// track the numbers. The process exits nonzero if the warm stream fails
// to beat the naive baseline by at least 5x — the serving subsystem's
// reason to exist.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "net/TrafficDriver.h"

#include <chrono>

using namespace mahjong;
using namespace mahjong::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       T0)
      .count();
}

} // namespace

int main() {
  const std::string Program = "pmd";
  const double Scale = 0.15;
  auto P = workload::buildBenchmarkProgram(Program, Scale);
  ir::ClassHierarchy CH(*P);

  pta::AnalysisOptions Opts;
  auto R = pta::runPointerAnalysis(*P, CH, Opts);
  double AnalyzeSeconds = R->Stats.Seconds;

  std::string Bytes = serve::encodeSnapshot(serve::buildSnapshot(*R));

  serve::QueryWorkload W;
  W.Clients = 4;
  W.QueriesPerClient = 5000;
  W.ZipfS = 1.0; // skewed keys: the warm cache gets real hit rates
  W.Seed = 7;

  // --- Naive baseline: one full re-analysis per query. ---
  const unsigned NaiveRuns = 3;
  auto T0 = std::chrono::steady_clock::now();
  for (unsigned I = 0; I < NaiveRuns; ++I) {
    auto RN = pta::runPointerAnalysis(*P, CH, Opts);
    clients::castMayFail(*RN, I % P->numCastSites());
  }
  double NaiveQps = NaiveRuns / secondsSince(T0);

  // --- Cold stream: decode + empty cache, end to end. ---
  T0 = std::chrono::steady_clock::now();
  std::string DecodeErr;
  auto Decoded = serve::decodeSnapshot(Bytes, DecodeErr);
  if (!Decoded) {
    std::fprintf(stderr, "snapshot decode failed: %s\n",
                 DecodeErr.c_str());
    return 1;
  }
  double DecodeSeconds = secondsSince(T0);
  std::shared_ptr<const serve::SnapshotData> Data = std::move(Decoded);
  net::SnapshotRegistry Registry(Data, "<memory>");
  net::LoopbackTransport Loopback(Registry);
  net::TrafficReport Cold = net::runTraffic(*Data, W, Loopback);

  // --- Warm stream: same engine, same key distribution. ---
  net::TrafficReport Warm = net::runTraffic(*Data, W, Loopback);

  double WarmOverNaive = NaiveQps > 0 ? Warm.QPS / NaiveQps : 0;
  std::printf("{\"program\": \"%s\", \"scale\": %.2f,\n"
              " \"analyze_seconds\": %.3f, \"snapshot_bytes\": %zu, "
              "\"decode_seconds\": %.4f,\n"
              " \"naive_reanalyze_qps\": %.2f,\n"
              " \"cold\": %s,\n"
              " \"warm\": %s,\n"
              " \"warm_over_naive\": %.1f}\n",
              Program.c_str(), Scale, AnalyzeSeconds, Bytes.size(),
              DecodeSeconds, NaiveQps, Cold.toJson().c_str(),
              Warm.toJson().c_str(), WarmOverNaive);

  if (WarmOverNaive < 5.0) {
    std::fprintf(stderr,
                 "FAIL: warm-cache serving is only %.1fx the naive "
                 "re-analyze baseline (need >= 5x)\n",
                 WarmOverNaive);
    return 1;
  }
  std::printf("\nExpected shape: decoding a snapshot costs milliseconds "
              "against a full\nre-analysis per query; the warm cache then "
              "multiplies the cold stream\nfurther. warm_over_naive "
              "should be orders of magnitude above the 5x bar.\n");
  return 0;
}
