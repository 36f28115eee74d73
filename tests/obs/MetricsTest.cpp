//===-- tests/obs/MetricsTest.cpp --------------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include "pta/PointerAnalysis.h"

#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

using namespace mahjong;
using namespace mahjong::obs;

namespace {

TEST(Metrics, SameNameSameMetric) {
  MetricsRegistry Reg;
  Counter &A = Reg.counter("pops");
  Counter &B = Reg.counter("pops");
  EXPECT_EQ(&A, &B);
  A.inc(3);
  B.inc(4);
  EXPECT_EQ(Reg.counter("pops").value(), 7u);
  EXPECT_NE(static_cast<void *>(&Reg.counter("pops")),
            static_cast<void *>(&Reg.counter("pops2")));
}

TEST(Metrics, JsonIsSortedAndInsertionOrderFree) {
  // Two registries fed the same metrics in opposite orders must render
  // byte-identically — the property the golden CLI test leans on.
  MetricsRegistry A, B;
  A.counter("z.last").set(1);
  A.counter("a.first").set(2);
  A.gauge("m.middle").set(0.5);
  B.gauge("m.middle").set(0.5);
  B.counter("a.first").set(2);
  B.counter("z.last").set(1);
  EXPECT_EQ(A.toJson(), B.toJson());
  std::string J = A.toJson();
  EXPECT_LT(J.find("a.first"), J.find("z.last"));
  EXPECT_NE(J.find("\"counters\""), std::string::npos);
  EXPECT_NE(J.find("\"gauges\""), std::string::npos);
  EXPECT_NE(J.find("\"histograms\""), std::string::npos);
}

TEST(Metrics, HistogramJsonCarriesSummaryAndBuckets) {
  MetricsRegistry Reg;
  LogHistogram &H = Reg.histogram("latency");
  for (uint64_t V = 0; V < 100; ++V)
    H.record(V);
  std::string J = Reg.toJson();
  EXPECT_NE(J.find("\"latency\""), std::string::npos);
  EXPECT_NE(J.find("\"count\": 100"), std::string::npos);
  EXPECT_NE(J.find("\"sum\": 4950"), std::string::npos);
  EXPECT_NE(J.find("\"max\": 99"), std::string::npos);
  EXPECT_NE(J.find("\"buckets\""), std::string::npos);
}

TEST(Metrics, PrometheusExposition) {
  MetricsRegistry Reg;
  Reg.counter("pta.worklist_pops").set(12);
  Reg.gauge("phase.parse_seconds").set(1.5);
  LogHistogram &H = Reg.histogram("serve.latency_ns");
  H.record(10);
  H.record(100000);
  std::string P = Reg.toPrometheus();
  // Names are prefixed and sanitized for the exposition format.
  EXPECT_NE(P.find("# TYPE mahjong_pta_worklist_pops counter"),
            std::string::npos);
  EXPECT_NE(P.find("mahjong_pta_worklist_pops 12"), std::string::npos);
  EXPECT_NE(P.find("# TYPE mahjong_phase_parse_seconds gauge"),
            std::string::npos);
  EXPECT_NE(P.find("# TYPE mahjong_serve_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(P.find("mahjong_serve_latency_ns_count 2"), std::string::npos);
  EXPECT_NE(P.find("le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(P.find("_sum 100010"), std::string::npos);
}

TEST(Metrics, PrometheusNameSanitization) {
  // Every byte outside [A-Za-z0-9_] must collapse to '_' in the
  // exposition: dots (the registry's namespace separator), but also
  // dashes, spaces, colons and high bytes a caller might sneak in.
  MetricsRegistry Reg;
  Reg.counter("net.queue-delay ns:p99").set(1);
  Reg.counter("already_ok_name").set(2);
  Reg.counter("tr\xc3\xa8s.odd").set(3);
  std::string P = Reg.toPrometheus();
  EXPECT_NE(P.find("mahjong_net_queue_delay_ns_p99 1"), std::string::npos);
  EXPECT_NE(P.find("mahjong_already_ok_name 2"), std::string::npos);
  EXPECT_NE(P.find("mahjong_tr__s_odd 3"), std::string::npos);
  // Nothing un-sanitized leaks through.
  EXPECT_EQ(P.find('-'), std::string::npos);
  EXPECT_EQ(P.find(':'), std::string::npos);
}

TEST(Metrics, PrometheusBucketBoundaries) {
  // The le labels are inclusive bucketHigh values. Buckets 0..31 hold
  // exact values; 32 and 33 share the first two-wide bucket, so the
  // boundary pair (31, 32) must land in different buckets while
  // (32, 33) merge.
  MetricsRegistry Reg;
  LogHistogram &H = Reg.histogram("edge");
  H.record(31);
  H.record(32);
  H.record(33);
  std::string P = Reg.toPrometheus();
  EXPECT_NE(P.find("mahjong_edge_bucket{le=\"31\"} 1"), std::string::npos);
  // Cumulative: 31 alone, then 32 and 33 together.
  EXPECT_NE(P.find("mahjong_edge_bucket{le=\"33\"} 3"), std::string::npos);
  EXPECT_EQ(P.find("le=\"32\""), std::string::npos);
  EXPECT_NE(P.find("mahjong_edge_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(P.find("mahjong_edge_sum 96"), std::string::npos);
  // Static bucket math agrees with what the exposition printed.
  EXPECT_EQ(LogHistogram::bucketOf(32), LogHistogram::bucketOf(33));
  EXPECT_NE(LogHistogram::bucketOf(31), LogHistogram::bucketOf(32));
  EXPECT_EQ(LogHistogram::bucketHigh(LogHistogram::bucketOf(33)), 33u);
}

TEST(Metrics, PrometheusGoldenServingExposition) {
  // Byte-exact exposition for the serving tier's observability metrics:
  // counters, then gauges, then histograms, each name-sorted. This is
  // the contract the CLI's --metrics-out consumers and the socket
  // bench's stats parser rely on.
  MetricsRegistry Reg;
  Reg.counter("net.slow_queries_total").set(2);
  Reg.gauge("flight.lanes").set(3);
  Reg.gauge("flight.recorded_total").set(128);
  LogHistogram &H = Reg.histogram("net.queue_delay_ns");
  H.record(7);
  H.record(7);
  H.record(103); // exactly bucketHigh of its bucket
  EXPECT_EQ(Reg.toPrometheus(),
            "# TYPE mahjong_net_slow_queries_total counter\n"
            "mahjong_net_slow_queries_total 2\n"
            "# TYPE mahjong_flight_lanes gauge\n"
            "mahjong_flight_lanes 3\n"
            "# TYPE mahjong_flight_recorded_total gauge\n"
            "mahjong_flight_recorded_total 128\n"
            "# TYPE mahjong_net_queue_delay_ns histogram\n"
            "mahjong_net_queue_delay_ns_bucket{le=\"7\"} 2\n"
            "mahjong_net_queue_delay_ns_bucket{le=\"103\"} 3\n"
            "mahjong_net_queue_delay_ns_bucket{le=\"+Inf\"} 3\n"
            "mahjong_net_queue_delay_ns_sum 117\n"
            "mahjong_net_queue_delay_ns_count 3\n");
}

TEST(Metrics, ConcurrentUpdatesAreSafe) {
  MetricsRegistry Reg;
  constexpr unsigned Threads = 8;
  constexpr unsigned PerThread = 10000;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&Reg] {
      // Mixed lookup + update from every thread: lookups lock, updates
      // are atomic on the stable references.
      Counter &C = Reg.counter("shared.counter");
      LogHistogram &H = Reg.histogram("shared.hist");
      for (unsigned I = 0; I < PerThread; ++I) {
        C.inc();
        H.record(I);
      }
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(Reg.counter("shared.counter").value(), Threads * PerThread);
  EXPECT_EQ(Reg.histogram("shared.hist").count(), Threads * PerThread);
}

TEST(Metrics, ExportStatsCoversEveryPTAStatsField) {
  pta::PTAStats S;
  S.Seconds = 1.25;
  S.TimedOut = true;
  S.NumContexts = 1;
  S.NumCSVars = 2;
  S.NumCSObjs = 3;
  S.NumCSMethods = 4;
  S.NumReachableMethods = 5;
  S.VarPtsEntries = 6;
  S.WorklistPops = 7;
  S.SCCsCollapsed = 8;
  S.NodesCollapsed = 9;
  S.FilterBitmapHits = 10;
  S.SetBytes = 11;
  S.WorkingSetBytes = 12;

  MetricsRegistry Reg;
  pta::exportStats(S, Reg);
  EXPECT_EQ(Reg.counter("pta.timed_out").value(), 1u);
  EXPECT_EQ(Reg.counter("pta.num_contexts").value(), 1u);
  EXPECT_EQ(Reg.counter("pta.num_cs_vars").value(), 2u);
  EXPECT_EQ(Reg.counter("pta.num_cs_objs").value(), 3u);
  EXPECT_EQ(Reg.counter("pta.num_cs_methods").value(), 4u);
  EXPECT_EQ(Reg.counter("pta.num_reachable_methods").value(), 5u);
  EXPECT_EQ(Reg.counter("pta.var_pts_entries").value(), 6u);
  EXPECT_EQ(Reg.counter("pta.worklist_pops").value(), 7u);
  EXPECT_EQ(Reg.counter("pta.sccs_collapsed").value(), 8u);
  EXPECT_EQ(Reg.counter("pta.nodes_collapsed").value(), 9u);
  EXPECT_EQ(Reg.counter("pta.filter_bitmap_hits").value(), 10u);
  EXPECT_EQ(Reg.counter("pta.set_bytes").value(), 11u);
  EXPECT_EQ(Reg.counter("pta.working_set_bytes").value(), 12u);
  EXPECT_DOUBLE_EQ(Reg.gauge("pta.seconds").value(), 1.25);
}

} // namespace
