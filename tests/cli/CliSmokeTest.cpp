//===-- tests/cli/CliSmokeTest.cpp -------------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The CLI exit-code contract, driven in-process through cli::runCli:
//
//   0  success                (analyze / query / serve-bench happy paths)
//   1  I/O error              (missing input files)
//   2  usage error            (unknown command/flag, malformed flag value)
//   3  parse error            (.mj source, snapshot bytes, query, spec)
//   4  analysis error         (time budget exceeded)
//
// Usage diagnostics must name the offending flag or command.
//
//===----------------------------------------------------------------------===//

#include "cli/Driver.h"

#include "ir/PrettyPrinter.h"
#include "workload/BenchmarkPrograms.h"

#include <gtest/gtest.h>

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

} // namespace

TEST(CliSmoke, NoArgumentsIsUsage) {
  CliRun R = run({});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
  EXPECT_NE(R.Err.find("usage:"), std::string::npos);
}

TEST(CliSmoke, UnknownCommandNamesTheCommand) {
  CliRun R = run({"frobnicate"});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
  EXPECT_NE(R.Err.find("unknown command 'frobnicate'"), std::string::npos)
      << R.Err;
}

TEST(CliSmoke, UnknownFlagNamesTheFlag) {
  std::string Mj = writeFile("ok.mj", FixtureSrc);
  CliRun R = run({"analyze", Mj, "--frobnicate", "3"});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
  EXPECT_NE(R.Err.find("unknown option '--frobnicate'"), std::string::npos)
      << R.Err;
  // The JSON metrics come from --metrics-out FILE.json only.
  R = run({"analyze", Mj, "--stats-json", "x"});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
  EXPECT_NE(R.Err.find("unknown option '--stats-json'"), std::string::npos)
      << R.Err;
}

TEST(CliSmoke, FlagMissingValueNamesTheFlag) {
  std::string Mj = writeFile("ok.mj", FixtureSrc);
  CliRun R = run({"analyze", Mj, "--analysis"});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
  EXPECT_NE(R.Err.find("flag '--analysis' requires a value"),
            std::string::npos)
      << R.Err;
}

TEST(CliSmoke, BadFlagValuesAreUsageErrors) {
  std::string Mj = writeFile("ok.mj", FixtureSrc);
  CliRun R = run({"analyze", Mj, "--analysis", "11obj"});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
  EXPECT_NE(R.Err.find("--analysis"), std::string::npos) << R.Err;

  R = run({"analyze", Mj, "--heap", "lava"});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
  EXPECT_NE(R.Err.find("--heap"), std::string::npos) << R.Err;

  R = run({"analyze", Mj, "--budget", "-3"});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
  EXPECT_NE(R.Err.find("--budget"), std::string::npos) << R.Err;

  // Engine and backend errors name the flag and list what it accepts.
  for (const char *Engine : {"turbo", "parallel"}) {
    R = run({"analyze", Mj, "--solver", Engine});
    EXPECT_EQ(R.Exit, cli::ExitUsage) << Engine;
    EXPECT_NE(R.Err.find("--solver"), std::string::npos) << R.Err;
    EXPECT_NE(R.Err.find("expected auto|wave|naive"), std::string::npos)
        << R.Err;
  }

  for (const char *Backend : {"bogus", "mde"}) {
    R = run({"analyze", Mj, "--set-rep", Backend});
    EXPECT_EQ(R.Exit, cli::ExitUsage) << Backend;
    EXPECT_NE(R.Err.find("--set-rep"), std::string::npos) << R.Err;
    EXPECT_NE(R.Err.find("expected chunked|hierarchy"), std::string::npos)
        << R.Err;
  }

  // Both engines are single-threaded: there is no --threads flag.
  R = run({"analyze", Mj, "--threads", "2"});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
  EXPECT_NE(R.Err.find("unknown option '--threads'"), std::string::npos)
      << R.Err;

  // The server answers every connection on its event loop: there is no
  // --workers flag either.
  R = run({"serve", "x.mjsnap", "--workers", "2"});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
  EXPECT_NE(R.Err.find("unknown option '--workers'"), std::string::npos)
      << R.Err;

  R = run({"dot-fpg", Mj, "notanumber"});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
}

TEST(CliSmoke, SolverEnginesAgreeOnClientCounts) {
  std::string Mj = writeFile("ok.mj", FixtureSrc);
  CliRun W = run({"analyze", Mj, "--analysis", "2obj", "--heap", "site",
                  "--solver", "wave"});
  CliRun N = run({"analyze", Mj, "--analysis", "2obj", "--heap", "site",
                  "--solver", "naive"});
  ASSERT_EQ(W.Exit, cli::ExitOk) << W.Err;
  ASSERT_EQ(N.Exit, cli::ExitOk) << N.Err;
  // The client-metric lines (between the timing line and the
  // engine-specific solver line) must match exactly.
  auto Metrics = [](const std::string &Out) {
    size_t B = Out.find("  reachable methods");
    size_t E = Out.find("  solver (");
    return Out.substr(B, E == std::string::npos ? E : E - B);
  };
  EXPECT_EQ(Metrics(W.Out), Metrics(N.Out));
  EXPECT_NE(W.Out.find("solver (wave)"), std::string::npos) << W.Out;
  EXPECT_NE(N.Out.find("solver (naive)"), std::string::npos) << N.Out;

  // The hierarchy set backend agrees too, under either engine.
  for (const char *Engine : {"wave", "naive"}) {
    CliRun H = run({"analyze", Mj, "--analysis", "2obj", "--heap", "site",
                    "--solver", Engine, "--set-rep", "hierarchy"});
    ASSERT_EQ(H.Exit, cli::ExitOk) << H.Err;
    EXPECT_EQ(Metrics(W.Out), Metrics(H.Out)) << Engine;
    EXPECT_NE(H.Out.find("set rep (hierarchy)"), std::string::npos) << H.Out;
  }

  // The auto default agrees as well, and reports its resolved choice as
  // `solver (auto:<engine>)`.
  CliRun A = run({"analyze", Mj, "--analysis", "2obj", "--heap", "site",
                  "--solver", "auto"});
  ASSERT_EQ(A.Exit, cli::ExitOk) << A.Err;
  EXPECT_EQ(Metrics(W.Out), Metrics(A.Out));
  EXPECT_NE(A.Out.find("solver (auto:"), std::string::npos) << A.Out;
  // Omitting --solver entirely is the same as asking for auto.
  CliRun D = run({"analyze", Mj, "--analysis", "2obj", "--heap", "site"});
  ASSERT_EQ(D.Exit, cli::ExitOk) << D.Err;
  EXPECT_EQ(Metrics(A.Out), Metrics(D.Out));
  EXPECT_NE(D.Out.find("solver (auto:"), std::string::npos) << D.Out;
}

TEST(CliSmoke, MissingInputsAreIOErrors) {
  EXPECT_EQ(run({"analyze", "/nonexistent/x.mj"}).Exit, cli::ExitIOError);
  EXPECT_EQ(run({"query", "/nonexistent/x.mjsnap", "devirt", "0"}).Exit,
            cli::ExitIOError);
  EXPECT_EQ(run({"serve-bench", "/nonexistent/x.mjsnap", "--smoke"}).Exit,
            cli::ExitIOError);
}

TEST(CliSmoke, SourceParseErrorIsExit3) {
  std::string Bad = writeFile("bad.mj", "class { oops");
  CliRun R = run({"analyze", Bad});
  EXPECT_EQ(R.Exit, cli::ExitParseError);
  EXPECT_NE(R.Err.find("parse error"), std::string::npos) << R.Err;
}

TEST(CliSmoke, CorruptSnapshotIsExit3) {
  std::string Bad = writeFile("bad.mjsnap", "these are not snapshot bytes");
  CliRun R = run({"query", Bad, "devirt", "0"});
  EXPECT_EQ(R.Exit, cli::ExitParseError);
}

TEST(CliSmoke, AnalyzeSaveThenQueryHappyPath) {
  std::string Mj = writeFile("fixture.mj", FixtureSrc);
  std::string Snap = testing::TempDir() + "/fixture.mjsnap";

  CliRun R = run({"analyze", Mj, "--analysis", "ci", "--heap", "site",
                  "--save-snapshot", Snap});
  ASSERT_EQ(R.Exit, cli::ExitOk) << R.Err;
  EXPECT_NE(R.Out.find("snapshot written to"), std::string::npos) << R.Out;

  R = run({"query", Snap, "points-to", "Main.main/0::x"});
  ASSERT_EQ(R.Exit, cli::ExitOk) << R.Err;
  EXPECT_NE(R.Out.find("2 result(s)"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("o1<A>@Main.main/0"), std::string::npos) << R.Out;

  R = run({"query", Snap, "cast-may-fail", "0"});
  ASSERT_EQ(R.Exit, cli::ExitOk) << R.Err;
  EXPECT_EQ(R.Out, "true\n");

  // A well-formed command over a malformed query is a parse error.
  R = run({"query", Snap, "points-to"});
  EXPECT_EQ(R.Exit, cli::ExitParseError);
  R = run({"query", Snap, "devirt", "notanumber"});
  EXPECT_EQ(R.Exit, cli::ExitParseError);
}

TEST(CliSmoke, ServeBenchSmokeSucceeds) {
  std::string Mj = writeFile("bench.mj", FixtureSrc);
  std::string Snap = testing::TempDir() + "/bench.mjsnap";
  ASSERT_EQ(run({"analyze", Mj, "--analysis", "ci", "--heap", "site",
                 "--save-snapshot", Snap})
                .Exit,
            cli::ExitOk);

  CliRun R = run({"serve-bench", Snap, "--smoke"});
  ASSERT_EQ(R.Exit, cli::ExitOk) << R.Err;
  EXPECT_NE(R.Out.find("\"failed\": 0"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("\"queries\": 500"), std::string::npos) << R.Out;
}

TEST(CliSmoke, ServeBenchSpecErrorsAreExit3) {
  std::string Mj = writeFile("spec.mj", FixtureSrc);
  std::string Snap = testing::TempDir() + "/spec.mjsnap";
  ASSERT_EQ(run({"analyze", Mj, "--analysis", "ci", "--heap", "site",
                 "--save-snapshot", Snap})
                .Exit,
            cli::ExitOk);

  std::string BadSpec = writeFile("bad.spec", "clients = banana\n");
  CliRun R = run({"serve-bench", Snap, "--spec", BadSpec});
  EXPECT_EQ(R.Exit, cli::ExitParseError);
  EXPECT_NE(R.Err.find("clients"), std::string::npos) << R.Err;

  EXPECT_EQ(run({"serve-bench", Snap, "--spec", "/nonexistent.spec"}).Exit,
            cli::ExitIOError);

  std::string GoodSpec = writeFile(
      "good.spec", "clients = 2\nqueries_per_client = 50\n");
  R = run({"serve-bench", Snap, "--spec", GoodSpec});
  ASSERT_EQ(R.Exit, cli::ExitOk) << R.Err;
  EXPECT_NE(R.Out.find("\"queries\": 100"), std::string::npos) << R.Out;
}

TEST(CliSmoke, BudgetTimeoutIsExit4) {
  // A mid-size profile under a context-sensitive analysis and a budget of
  // (effectively) zero: the solver must give up at its first budget check.
  auto P = workload::buildBenchmarkProgram("pmd", /*Scale=*/0.4);
  std::string Mj = writeFile("pmd.mj", ir::printProgram(*P));
  CliRun R = run({"analyze", Mj, "--analysis", "3obj", "--heap", "site",
                  "--budget", "0.000001"});
  EXPECT_EQ(R.Exit, cli::ExitAnalysisError) << R.Err;
  EXPECT_NE(R.Err.find("budget"), std::string::npos) << R.Err;
}

TEST(CliSmoke, ServeFlagErrorsNameTheOffendingFlag) {
  // `serve` joins the exit-code contract: every malformed flag is exit 2
  // with a diagnostic naming the flag, before any socket is touched.
  EXPECT_EQ(run({"serve"}).Exit, cli::ExitUsage);

  CliRun R = run({"serve", "x.mjsnap", "--listen", "nonsense"});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
  EXPECT_NE(R.Err.find("--listen"), std::string::npos) << R.Err;

  R = run({"serve", "x.mjsnap", "--max-conns", "0"});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
  EXPECT_NE(R.Err.find("--max-conns"), std::string::npos) << R.Err;

  R = run({"serve", "x.mjsnap", "--max-inflight", "banana"});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
  EXPECT_NE(R.Err.find("--max-inflight"), std::string::npos) << R.Err;

  R = run({"serve", "x.mjsnap", "--duration", "-3"});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
  EXPECT_NE(R.Err.find("--duration"), std::string::npos) << R.Err;

  R = run({"serve", "x.mjsnap", "--listen"});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
  EXPECT_NE(R.Err.find("--listen"), std::string::npos) << R.Err;

  R = run({"serve", "x.mjsnap", "--frobnicate", "1"});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
  EXPECT_NE(R.Err.find("--frobnicate"), std::string::npos) << R.Err;

  // Input errors keep their usual codes.
  EXPECT_EQ(run({"serve", "/nonexistent/x.mjsnap", "--duration", "0.01"})
                .Exit,
            cli::ExitIOError);
  std::string Bad = writeFile("servebad.mjsnap", "not snapshot bytes");
  EXPECT_EQ(run({"serve", Bad, "--duration", "0.01"}).Exit,
            cli::ExitParseError);
}

TEST(CliSmoke, ServeRunsForDurationThenDrains) {
  std::string Mj = writeFile("serve.mj", FixtureSrc);
  std::string Snap = testing::TempDir() + "/serve.mjsnap";
  ASSERT_EQ(run({"analyze", Mj, "--analysis", "ci", "--heap", "site",
                 "--save-snapshot", Snap})
                .Exit,
            cli::ExitOk);

  std::string Metrics = testing::TempDir() + "/serve_metrics.prom";
  CliRun R = run({"serve", Snap, "--listen", "127.0.0.1:0", "--duration",
                  "0.1", "--metrics-out", Metrics});
  ASSERT_EQ(R.Exit, cli::ExitOk) << R.Err;
  EXPECT_NE(R.Out.find("listening on 127.0.0.1:"), std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("server drained:"), std::string::npos) << R.Out;
  std::ifstream In(Metrics);
  std::string Prom((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(Prom.find("mahjong_net_accepted_total"), std::string::npos);
}

TEST(CliSmoke, ServeBenchConnectFlagErrors) {
  CliRun R = run({"serve-bench", "x.mjsnap", "--connect", "nonsense"});
  // The host:port shape is validated before the snapshot is touched at
  // the transport level, but after it loads — use a real snapshot.
  std::string Mj = writeFile("connect.mj", FixtureSrc);
  std::string Snap = testing::TempDir() + "/connect.mjsnap";
  ASSERT_EQ(run({"analyze", Mj, "--analysis", "ci", "--heap", "site",
                 "--save-snapshot", Snap})
                .Exit,
            cli::ExitOk);
  R = run({"serve-bench", Snap, "--connect", "nonsense", "--smoke"});
  EXPECT_EQ(R.Exit, cli::ExitUsage);
  EXPECT_NE(R.Err.find("--connect"), std::string::npos) << R.Err;

  // A well-formed address nobody listens on is an analysis-level failure
  // (zero queries answered), not a usage error.
  R = run({"serve-bench", Snap, "--connect", "127.0.0.1:1", "--smoke"});
  EXPECT_EQ(R.Exit, cli::ExitAnalysisError);
}
