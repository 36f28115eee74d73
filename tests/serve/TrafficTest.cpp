//===-- tests/serve/TrafficTest.cpp ------------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The workload-spec parser (accept/reject surface, line-numbered
// diagnostics), the deterministic query generator, and end-to-end replays
// through the traffic driver's loopback transport mirroring what CI's
// serve-bench job asserts: nonzero QPS, zero failed queries.
//
//===----------------------------------------------------------------------===//

#include "serve/Traffic.h"

#include "../TestUtil.h"
#include "net/TrafficDriver.h"

#include <gtest/gtest.h>

#include <set>

using namespace mahjong;
using namespace mahjong::serve;
using namespace mahjong::test;

namespace {

std::shared_ptr<const SnapshotData> fixtureSnapshot() {
  Analyzed A = analyze(R"(
    class A { method m(p) { return p; } }
    class B extends A { method m(p) { return this; } }
    class Main {
      static method main() {
        a = new A;
        b = new B;
        x = a;
        x = b;
        r = x.m(b);
        c = (B) x;
      }
    }
  )");
  return std::make_shared<SnapshotData>(buildSnapshot(*A.R));
}

} // namespace

TEST(WorkloadSpec, ParsesFullSpec) {
  QueryWorkload W;
  std::string Err;
  ASSERT_TRUE(parseWorkloadSpec(R"(
    # serving mix for the smoke job
    clients = 3
    queries_per_client = 123
    duration_seconds = 0.5
    seed = 99
    zipf_s = 1.1
    weight_points_to = 10
    weight_alias = 0
    weight_devirt = 5
    weight_cast_may_fail = 1
    weight_callers = 0
    weight_callees = 2
  )",
                                W, Err))
      << Err;
  EXPECT_EQ(W.Clients, 3u);
  EXPECT_EQ(W.QueriesPerClient, 123u);
  EXPECT_DOUBLE_EQ(W.DurationSeconds, 0.5);
  EXPECT_EQ(W.Seed, 99u);
  EXPECT_DOUBLE_EQ(W.ZipfS, 1.1);
  EXPECT_EQ(W.WeightPointsTo, 10u);
  EXPECT_EQ(W.WeightAlias, 0u);
  EXPECT_EQ(W.WeightDevirt, 5u);
  EXPECT_EQ(W.WeightCastMayFail, 1u);
  EXPECT_EQ(W.WeightCallers, 0u);
  EXPECT_EQ(W.WeightCallees, 2u);
}

TEST(WorkloadSpec, DefaultsSurviveEmptySpec) {
  QueryWorkload W;
  std::string Err;
  ASSERT_TRUE(parseWorkloadSpec("# nothing but comments\n\n", W, Err));
  EXPECT_EQ(W.Clients, 4u);
  EXPECT_EQ(W.QueriesPerClient, 1000u);
}

TEST(WorkloadSpec, RejectsMalformedInput) {
  QueryWorkload W;
  std::string Err;

  EXPECT_FALSE(parseWorkloadSpec("clients 8\n", W, Err));
  EXPECT_NE(Err.find("line 1"), std::string::npos) << Err;

  EXPECT_FALSE(parseWorkloadSpec("\nfrobs = 3\n", W, Err));
  EXPECT_NE(Err.find("line 2"), std::string::npos) << Err;
  EXPECT_NE(Err.find("frobs"), std::string::npos) << Err;

  EXPECT_FALSE(parseWorkloadSpec("clients = 0\n", W, Err));
  EXPECT_FALSE(parseWorkloadSpec("clients = -2\n", W, Err));
  EXPECT_FALSE(parseWorkloadSpec("zipf_s = banana\n", W, Err));
  EXPECT_FALSE(parseWorkloadSpec("weight_teleport = 1\n", W, Err));
  // No spec key sizes a server-side worker pool or batch.
  for (const char *Gone : {"workers = 2\n", "max_batch = 4\n"}) {
    EXPECT_FALSE(parseWorkloadSpec(Gone, W, Err)) << Gone;
    EXPECT_NE(Err.find("unknown key"), std::string::npos) << Err;
  }

  // A mix with every weight zero can generate nothing.
  QueryWorkload Z;
  EXPECT_FALSE(parseWorkloadSpec(
      "weight_points_to = 0\nweight_alias = 0\nweight_devirt = 0\n"
      "weight_cast_may_fail = 0\nweight_callers = 0\nweight_callees = 0\n",
      Z, Err));
  EXPECT_NE(Err.find("zero"), std::string::npos) << Err;
}

TEST(QueryGeneratorTest, DeterministicPerSeedAndClient) {
  auto D = fixtureSnapshot();
  QueryWorkload W;
  W.Seed = 7;

  QueryGenerator G1(*D, W, /*Client=*/0), G2(*D, W, /*Client=*/0);
  QueryGenerator G3(*D, W, /*Client=*/1);
  bool Diverged = false;
  for (int I = 0; I < 64; ++I) {
    std::string A = G1.next();
    EXPECT_EQ(A, G2.next()) << "same seed+client must replay identically";
    Diverged |= A != G3.next();
  }
  EXPECT_TRUE(Diverged) << "clients must not replay each other's stream";
}

TEST(QueryGeneratorTest, GeneratedQueriesAllParseAndSucceed) {
  auto D = fixtureSnapshot();
  QueryEngine E(D);
  QueryWorkload W;
  W.ZipfS = 1.2; // exercise the skewed-rank path too
  std::set<std::string> Kinds;
  QueryGenerator G(*D, W, 0);
  for (int I = 0; I < 512; ++I) {
    std::string Text = G.next();
    QueryResult R = E.run(Text);
    ASSERT_TRUE(R.Ok) << Text << ": " << R.Error;
    Kinds.insert(Text.substr(0, Text.find(' ')));
  }
  // The default mix must actually produce variety.
  EXPECT_GE(Kinds.size(), 4u) << "only saw: " << testing::PrintToString(Kinds);
}

namespace {

/// One replay of \p W through a loopback transport over \p D.
net::TrafficReport replay(std::shared_ptr<const SnapshotData> D,
                          const QueryWorkload &W) {
  net::SnapshotRegistry Registry(D, "<memory>");
  net::LoopbackTransport T(Registry);
  return net::runTraffic(*D, W, T);
}

} // namespace

TEST(Traffic, ReplayReportsSaneNumbers) {
  auto D = fixtureSnapshot();
  QueryWorkload W;
  W.Clients = 4;
  W.QueriesPerClient = 500;
  net::TrafficReport Rep = replay(D, W);

  EXPECT_EQ(Rep.Queries, 4u * 500u);
  EXPECT_EQ(Rep.Failed, 0u);
  EXPECT_EQ(Rep.TransportErrors, 0u);
  EXPECT_EQ(Rep.Connections, 4u);
  EXPECT_GT(Rep.QPS, 0.0);
  EXPECT_GT(Rep.Seconds, 0.0);
  EXPECT_LE(Rep.P50Micros, Rep.P95Micros);
  EXPECT_LE(Rep.P95Micros, Rep.P99Micros);
  // The cache counters come back through the final health round trip.
  EXPECT_EQ(Rep.Cache.Hits + Rep.Cache.Misses, Rep.Queries);
  ASSERT_EQ(Rep.DigestsSeen.size(), 1u);
  EXPECT_EQ(Rep.DigestsSeen[0], snapshotDigest(*D));
  EXPECT_EQ(Rep.EpochMin, 1u);
  EXPECT_EQ(Rep.EpochMax, 1u);

  std::string Json = Rep.toJson();
  EXPECT_NE(Json.find("\"queries\": 2000"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"failed\": 0"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"qps\": "), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"p99_us\": "), std::string::npos) << Json;
}

TEST(Traffic, SurvivesDegenerateEmptySnapshot) {
  // A snapshot of an empty program has no vars, sites, casts or methods;
  // the generator must emit fixed parse-valid queries instead of
  // indexing the empty tables.
  auto D = std::make_shared<SnapshotData>();
  D->PtsSets.push_back({}); // pinned empty set
  QueryWorkload W;
  W.Clients = 2;
  W.QueriesPerClient = 64;
  W.ZipfS = 1.1; // the skewed-rank path must tolerate empty pools too
  net::TrafficReport Rep = replay(D, W);
  EXPECT_EQ(Rep.Queries, 2u * 64u);
  // Every answer is a clean unknown-entity error, not a crash.
  EXPECT_EQ(Rep.Failed, Rep.Queries);
}

TEST(Traffic, DurationModeStopsOnTime) {
  auto D = fixtureSnapshot();
  QueryWorkload W;
  W.Clients = 2;
  W.DurationSeconds = 0.05;
  net::TrafficReport Rep = replay(D, W);
  EXPECT_GT(Rep.Queries, 0u);
  EXPECT_EQ(Rep.Failed, 0u);
  // Generously bounded: the run must terminate near the deadline, not
  // run the default 1000-queries-per-client count.
  EXPECT_LT(Rep.Seconds, 5.0);
}
