//===-- tests/cli/ObservabilityCliTest.cpp -----------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The CLI observability surface, driven in-process through cli::runCli:
// --trace-out / --metrics-out on analyze, the gen command, the
// serve-side stats query verb, and the serve-bench heartbeat. The JSON
// rendering of --metrics-out is pinned by a golden body:
// timing-dependent numbers are normalized away, while the counters
// section — solver and client aggregates that are deterministic for the
// fixture — must match byte for byte.
//
//===----------------------------------------------------------------------===//

#include "cli/Driver.h"

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace mahjong;

namespace {

struct CliRun {
  int Exit;
  std::string Out;
  std::string Err;
};

CliRun run(std::vector<std::string> Args) {
  std::vector<const char *> Argv{"mahjong-cli"};
  for (const std::string &A : Args)
    Argv.push_back(A.c_str());
  std::ostringstream Out, Err;
  int Exit = cli::runCli(static_cast<int>(Argv.size()), Argv.data(), Out,
                         Err);
  return {Exit, Out.str(), Err.str()};
}

std::string writeFile(const std::string &Name, std::string_view Body) {
  std::string Path = testing::TempDir() + "/" + Name;
  std::ofstream(Path) << Body;
  return Path;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

constexpr std::string_view FixtureSrc = R"(
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
)";

/// Normalizes a --metrics-out JSON body for golden comparison: the counters
/// section and histogram "count" lines stay verbatim (deterministic for
/// a fixed fixture and solver), every other numeric value becomes 0 and
/// bucket arrays are emptied (timing-dependent).
std::string normalizeStatsJson(const std::string &Json) {
  std::istringstream In(Json);
  std::ostringstream Out;
  std::string Line;
  bool InCounters = false;
  while (std::getline(In, Line)) {
    if (Line.find("\"counters\"") != std::string::npos)
      InCounters = true;
    else if (Line.find("\"gauges\"") != std::string::npos ||
             Line.find("\"histograms\"") != std::string::npos)
      InCounters = false;
    if (size_t B = Line.find("\"buckets\": ["); B != std::string::npos) {
      Out << Line.substr(0, B) << "\"buckets\": []\n";
      continue;
    }
    bool KeepNumbers =
        InCounters || Line.find("\"count\":") != std::string::npos;
    if (!KeepNumbers) {
      // `  "name": <number>[,]` -> `  "name": 0[,]`
      size_t Colon = Line.find(": ");
      if (Colon != std::string::npos && Colon + 2 < Line.size() &&
          (std::isdigit(static_cast<unsigned char>(Line[Colon + 2])) ||
           Line[Colon + 2] == '-')) {
        bool Comma = !Line.empty() && Line.back() == ',';
        Out << Line.substr(0, Colon + 2) << "0" << (Comma ? "," : "")
            << "\n";
        continue;
      }
    }
    Out << Line << "\n";
  }
  return Out.str();
}

} // namespace

TEST(ObservabilityCli, AnalyzeWritesValidTraceAndMetrics) {
  std::string Mj = writeFile("obs.mj", FixtureSrc);
  std::string Trace = testing::TempDir() + "/obs_trace.json";
  std::string Metrics = testing::TempDir() + "/obs_metrics.json";
  // Pin the wave engine: this test asserts wave-specific spans and the
  // pta.wave_us histogram, which the auto default would route around on a
  // fixture this small (auto resolves to naive).
  CliRun R = run({"analyze", Mj, "--analysis", "ci", "--solver", "wave",
                  "--trace-out", Trace, "--metrics-out", Metrics});
  ASSERT_EQ(R.Exit, cli::ExitOk) << R.Err;
  EXPECT_NE(R.Out.find("trace written to"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("metrics written to"), std::string::npos) << R.Out;

  std::string TraceBody = readFile(Trace);
  EXPECT_NE(TraceBody.find("\"traceEvents\""), std::string::npos);
  // The mahjong pipeline phases and the solver span must all be present.
  for (const char *Span :
       {"parse", "cha", "pre-analysis", "fpg-build", "automata-merge",
        "dfa-materialize", "dfa-minimize", "solve/wave", "main-analysis"})
    EXPECT_NE(TraceBody.find(std::string("\"name\": \"") + Span + "\""),
              std::string::npos)
        << Span;

  std::string MetricsBody = readFile(Metrics);
  EXPECT_NE(MetricsBody.find("\"pta.worklist_pops\""), std::string::npos);
  EXPECT_NE(MetricsBody.find("\"pta.wave_us\""), std::string::npos);
  EXPECT_NE(MetricsBody.find("\"phase.parse_seconds\""),
            std::string::npos);
  EXPECT_NE(MetricsBody.find("\"mahjong.objects\""), std::string::npos);
}

TEST(ObservabilityCli, MetricsOutSpeaksPrometheusForPromFiles) {
  std::string Mj = writeFile("obs_prom.mj", FixtureSrc);
  std::string Metrics = testing::TempDir() + "/obs_metrics.prom";
  CliRun R = run({"analyze", Mj, "--analysis", "ci", "--heap", "site",
                  "--metrics-out", Metrics});
  ASSERT_EQ(R.Exit, cli::ExitOk) << R.Err;
  std::string Body = readFile(Metrics);
  EXPECT_NE(Body.find("# TYPE mahjong_pta_worklist_pops counter"),
            std::string::npos)
      << Body.substr(0, 400);
  EXPECT_NE(Body.find("# TYPE mahjong_pta_seconds gauge"),
            std::string::npos);
}

TEST(ObservabilityCli, TracingDoesNotChangeAnalysisOutput) {
  // Bit-identical results with tracing on vs off: the analyze stdout
  // reports (counters, client metrics) must match modulo timings, which
  // both runs print with fixed precision but different values — so
  // compare the timing-free lines only.
  std::string Mj = writeFile("obs_id.mj", FixtureSrc);
  std::string Trace = testing::TempDir() + "/obs_id_trace.json";
  CliRun Plain = run({"analyze", Mj, "--analysis", "ci", "--heap", "site"});
  CliRun Traced = run({"analyze", Mj, "--analysis", "ci", "--heap", "site",
                       "--trace-out", Trace});
  ASSERT_EQ(Plain.Exit, cli::ExitOk);
  ASSERT_EQ(Traced.Exit, cli::ExitOk);
  // Timing lines are the only ones carrying a decimal point; everything
  // else (solver pops, client counts) must match exactly.
  auto StableLines = [](const std::string &S) {
    std::istringstream In(S);
    std::string Line, Kept;
    while (std::getline(In, Line))
      if (Line.find('.') == std::string::npos &&
          Line.find("written to") == std::string::npos)
        Kept += Line + "\n";
    return Kept;
  };
  std::string Stable = StableLines(Plain.Out);
  EXPECT_FALSE(Stable.empty());
  EXPECT_EQ(Stable, StableLines(Traced.Out));
}

TEST(ObservabilityCli, StatsJsonGolden) {
  std::string Mj = writeFile("obs_golden.mj", FixtureSrc);
  std::string Stats = testing::TempDir() + "/obs_stats.json";
  CliRun R = run({"analyze", Mj, "--analysis", "ci", "--heap", "site",
                  "--solver", "wave", "--metrics-out", Stats});
  ASSERT_EQ(R.Exit, cli::ExitOk) << R.Err;
  EXPECT_NE(R.Out.find("metrics written to"), std::string::npos);
  std::string Normalized = normalizeStatsJson(readFile(Stats));
  // Golden body: counters (deterministic for this fixture + wave solver)
  // verbatim; gauges and histogram statistics normalized to 0.
  const std::string Golden = R"json({
  "counters": {
    "clients.call_graph_edges": 2,
    "clients.may_fail_casts": 1,
    "clients.mono_call_sites": 0,
    "clients.poly_call_sites": 1,
    "clients.reachable_methods": 3,
    "clients.total_casts": 1,
    "pta.filter_bitmap_hits": 1,
    "pta.nodes_collapsed": 0,
    "pta.num_contexts": 1,
    "pta.num_cs_methods": 3,
    "pta.num_cs_objs": 3,
    "pta.num_cs_vars": 14,
    "pta.num_reachable_methods": 3,
    "pta.sccs_collapsed": 0,
    "pta.set_bytes": 176,
    "pta.timed_out": 0,
    "pta.var_pts_entries": 12,
    "pta.working_set_bytes": 176,
    "pta.worklist_pops": 11
  },
  "gauges": {
    "phase.cha_seconds": 0,
    "phase.main_analysis_seconds": 0,
    "phase.parse_seconds": 0,
    "pta.seconds": 0
  },
  "histograms": {
    "pta.wave_us": {
      "count": 5,
      "sum": 0,
      "max": 0,
      "mean": 0,
      "p50": 0,
      "p95": 0,
      "p99": 0,
      "buckets": []
    }
  }
}
)json";
  EXPECT_EQ(Normalized, Golden);
}

TEST(ObservabilityCli, GenWritesAnalyzableSource) {
  std::string Out = testing::TempDir() + "/gen_antlr.mj";
  CliRun G = run({"gen", "antlr", Out, "--scale", "0.05"});
  ASSERT_EQ(G.Exit, cli::ExitOk) << G.Err;
  EXPECT_NE(G.Out.find("antlr written to"), std::string::npos) << G.Out;

  CliRun A = run({"analyze", Out, "--analysis", "ci", "--heap", "site"});
  EXPECT_EQ(A.Exit, cli::ExitOk) << A.Err;

  CliRun Bad = run({"gen", "no-such-profile", Out});
  EXPECT_EQ(Bad.Exit, cli::ExitUsage);
  EXPECT_NE(Bad.Err.find("unknown profile 'no-such-profile'"),
            std::string::npos)
      << Bad.Err;

  CliRun BadScale = run({"gen", "antlr", Out, "--scale", "-1"});
  EXPECT_EQ(BadScale.Exit, cli::ExitUsage);
  EXPECT_NE(BadScale.Err.find("--scale"), std::string::npos);
}

TEST(ObservabilityCli, StatsQueryVerbExposesEngineMetrics) {
  std::string Mj = writeFile("obs_serve.mj", FixtureSrc);
  std::string Snap = testing::TempDir() + "/obs_serve.mjsnap";
  CliRun A = run({"analyze", Mj, "--analysis", "ci", "--heap", "site",
                  "--save-snapshot", Snap});
  ASSERT_EQ(A.Exit, cli::ExitOk) << A.Err;

  CliRun Q = run({"query", Snap, "stats"});
  ASSERT_EQ(Q.Exit, cli::ExitOk) << Q.Err;
  EXPECT_NE(Q.Out.find("mahjong_serve_cache_hits"), std::string::npos)
      << Q.Out;
  EXPECT_NE(Q.Out.find("mahjong_serve_cache_misses"), std::string::npos);

  CliRun BadArity = run({"query", Snap, "stats", "extra"});
  EXPECT_EQ(BadArity.Exit, cli::ExitParseError);
  EXPECT_NE(BadArity.Err.find("'stats' expects 0 argument(s)"),
            std::string::npos)
      << BadArity.Err;
}

TEST(ObservabilityCli, ServeBenchReportsKindsAndHeartbeat) {
  std::string Mj = writeFile("obs_bench.mj", FixtureSrc);
  std::string Snap = testing::TempDir() + "/obs_bench.mjsnap";
  CliRun A = run({"analyze", Mj, "--analysis", "ci", "--heap", "site",
                  "--save-snapshot", Snap});
  ASSERT_EQ(A.Exit, cli::ExitOk) << A.Err;

  std::string Spec = writeFile("obs_bench.spec", "clients = 2\n"
                                                 "duration_seconds = 0.3\n"
                                                 "heartbeat_seconds = 0.05\n");
  CliRun B = run({"serve-bench", Snap, "--spec", Spec});
  ASSERT_EQ(B.Exit, cli::ExitOk) << B.Err;
  EXPECT_NE(B.Out.find("\"kinds\""), std::string::npos) << B.Out;
  EXPECT_NE(B.Out.find("\"points-to\""), std::string::npos) << B.Out;
  EXPECT_NE(B.Out.find("\"cache_retired\""), std::string::npos);
  // The heartbeat goes to stderr so stdout stays one JSON object.
  EXPECT_NE(B.Err.find("[serve-bench] t="), std::string::npos) << B.Err;
  EXPECT_EQ(B.Out.find("[serve-bench]"), std::string::npos);

  CliRun BadHb = run({"serve-bench", Snap, "--heartbeat", "nope"});
  EXPECT_EQ(BadHb.Exit, cli::ExitUsage);
  EXPECT_NE(BadHb.Err.find("--heartbeat"), std::string::npos);
}
