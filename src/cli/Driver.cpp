//===-- cli/Driver.cpp - Testable command-line driver ------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "cli/Driver.h"

#include "clients/Clients.h"
#include "core/GraphExport.h"
#include "core/Mahjong.h"
#include "ir/Parser.h"
#include "ir/PrettyPrinter.h"
#include "net/Client.h"
#include "net/Protocol.h"
#include "net/SnapshotServer.h"
#include "net/TrafficDriver.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "pta/FactsExport.h"
#include "serve/QueryEngine.h"
#include "serve/Snapshot.h"
#include "serve/Traffic.h"
#include "support/Timer.h"
#include "workload/BenchmarkPrograms.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace mahjong;
using namespace mahjong::cli;

namespace {

int usage(std::ostream &Err) {
  Err << "usage: mahjong-cli <command> [options]\n"
         "commands:\n"
         "  analyze <file.mj> [--analysis ci|2cs|2obj|3obj|2type|3type]\n"
         "                    [--heap site|type|mahjong] [--budget SECONDS]\n"
         "                    [--solver auto|wave|naive]\n"
         "                    [--facts DIR] [--save-snapshot FILE.mjsnap]\n"
         "                    [--trace-out FILE.json] [--metrics-out FILE]\n"
         "  gen <profile> <out.mj> [--scale S]   write a workload profile "
         "as .mj source\n"
         "  query <file.mjsnap> <query...>   e.g. query s.mjsnap points-to "
         "Main.main/0::x (or: stats)\n"
         "  serve <file.mjsnap> [--listen HOST:PORT] [--max-conns N]\n"
         "                    [--max-inflight N] [--swap-fifo PATH]\n"
         "                    [--duration SECONDS] [--metrics-out FILE]\n"
         "                    [--metrics-interval SECONDS] "
         "[--slow-query-us N]\n"
         "  serve-bench <file.mjsnap> [--spec FILE] [--smoke] "
         "[--heartbeat SECONDS]\n"
         "                    [--connect HOST:PORT] [--metrics-out FILE]\n"
         "  net-query HOST:PORT <text...>   one round trip; e.g. "
         "net-query 127.0.0.1:7777 health\n"
         "  merge-report <file.mj>\n"
         "  dot-fpg <file.mj> <objIndex>\n"
         "  dot-dfa <file.mj> <objIndex>\n"
         "  dot-callgraph <file.mj>\n"
         "exit codes: 0 ok, 1 io error, 2 usage, 3 parse error, "
         "4 analysis error\n";
  return ExitUsage;
}

/// Flag cursor distinguishing "unknown flag" from "flag missing its
/// value", so both diagnostics can name the offending flag.
class FlagParser {
public:
  FlagParser(int Argc, const char *const *Argv, int First,
             std::ostream &Err)
      : Argc(Argc), Argv(Argv), I(First), Err(Err) {}

  bool done() const { return I >= Argc; }
  const char *current() const { return Argv[I]; }

  /// If the current flag is \p Flag, consumes it and its value.
  bool take(const char *Flag, std::string &Value) {
    if (std::strcmp(Argv[I], Flag) != 0)
      return false;
    if (I + 1 >= Argc) {
      Err << "error: flag '" << Flag << "' requires a value\n";
      Malformed = true;
      return false;
    }
    Value = Argv[++I];
    ++I;
    return true;
  }

  /// If the current flag is \p Flag (valueless), consumes it.
  bool takeBare(const char *Flag) {
    if (std::strcmp(Argv[I], Flag) != 0)
      return false;
    ++I;
    return true;
  }

  /// True once a malformed flag has been reported via take().
  bool malformed() const { return Malformed; }

  /// Reports the current token as unknown and fails the parse.
  int unknown() {
    Err << "error: unknown option '" << Argv[I] << "'\n";
    return ExitUsage;
  }

private:
  int Argc;
  const char *const *Argv;
  int I;
  std::ostream &Err;
  bool Malformed = false;
};

std::unique_ptr<ir::Program> load(const char *Path, std::ostream &Err,
                                  int &Exit) {
  std::ifstream In(Path);
  if (!In) {
    Err << "error: cannot open '" << Path << "'\n";
    Exit = ExitIOError;
    return nullptr;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string ParseErr;
  auto P = ir::parseProgram(Buf.str(), ParseErr);
  if (!P) {
    Err << Path << ":" << ParseErr << ": parse error\n";
    Exit = ExitParseError;
  }
  return P;
}

std::shared_ptr<const serve::SnapshotData>
loadSnap(const char *Path, std::ostream &Err, int &Exit) {
  std::string LoadErr;
  std::shared_ptr<const serve::SnapshotData> D =
      serve::loadSnapshot(Path, LoadErr);
  if (!D) {
    Err << "error: " << LoadErr << "\n";
    // "cannot open" is an I/O failure; everything else means the bytes
    // did not decode.
    Exit = LoadErr.rfind("cannot open", 0) == 0 ? ExitIOError
                                                : ExitParseError;
  }
  return D;
}

bool parseAnalysis(const std::string &Name, pta::ContextKind &Kind,
                   unsigned &K) {
  if (Name == "ci") {
    Kind = pta::ContextKind::Insensitive;
    K = 0;
    return true;
  }
  auto Depth = [&Name, &K](size_t SuffixLen) {
    K = Name[0] - '0';
    return Name.size() == SuffixLen + 1 && K >= 1 && K <= 9;
  };
  if (Name.size() >= 2 && std::isdigit(static_cast<unsigned char>(Name[0]))) {
    if (Name.substr(1) == "cs") {
      Kind = pta::ContextKind::CallSite;
      return Depth(2);
    }
    if (Name.substr(1) == "obj") {
      Kind = pta::ContextKind::Object;
      return Depth(3);
    }
    if (Name.substr(1) == "type") {
      Kind = pta::ContextKind::Type;
      return Depth(4);
    }
  }
  return false;
}

/// Installs a trace sink for the enclosing scope and guarantees it is
/// uninstalled (and every span quiesced from this thread's view) before
/// the sink object dies — even on early error returns.
class ScopedTraceSink {
public:
  explicit ScopedTraceSink(bool Enabled) {
    if (Enabled)
      obs::installTraceSink(&Sink);
  }
  ~ScopedTraceSink() { release(); }
  /// Uninstalls so the sink can be safely serialized.
  void release() {
    if (obs::currentTraceSink() == &Sink)
      obs::installTraceSink(nullptr);
  }
  obs::ChromeTraceSink &sink() { return Sink; }

private:
  obs::ChromeTraceSink Sink;
};

/// Writes \p Body to \p Path; reports on \p Err and returns false on
/// failure.
bool writeTextFile(const std::string &Path, const std::string &Body,
                   std::ostream &Err) {
  std::ofstream OutF(Path, std::ios::binary);
  if (!OutF || !(OutF << Body) || !OutF.flush()) {
    Err << "error: cannot write '" << Path << "'\n";
    return false;
  }
  return true;
}

/// True when \p Path names a Prometheus text file (.prom); anything else
/// gets the JSON rendering.
bool wantsPrometheus(const std::string &Path) {
  return Path.size() >= 5 && Path.compare(Path.size() - 5, 5, ".prom") == 0;
}

int cmdAnalyze(int Argc, const char *const *Argv, std::ostream &Out,
               std::ostream &Err) {
  if (Argc < 3)
    return usage(Err);
  std::string Analysis = "2obj", HeapKind = "mahjong", SolverKind = "auto",
              FactsDir, SnapPath, BudgetStr, TraceOut, MetricsOut;
  FlagParser Flags(Argc, Argv, 3, Err);
  while (!Flags.done()) {
    if (Flags.take("--analysis", Analysis) || Flags.take("--heap", HeapKind) ||
        Flags.take("--budget", BudgetStr) || Flags.take("--facts", FactsDir) ||
        Flags.take("--solver", SolverKind) ||
        Flags.take("--save-snapshot", SnapPath) ||
        Flags.take("--trace-out", TraceOut) ||
        Flags.take("--metrics-out", MetricsOut))
      continue;
    return Flags.malformed() ? ExitUsage : Flags.unknown();
  }
  double Budget = 0;
  if (!BudgetStr.empty()) {
    char *End = nullptr;
    Budget = std::strtod(BudgetStr.c_str(), &End);
    if (!End || *End != '\0' || Budget < 0) {
      Err << "error: flag '--budget' needs a non-negative number, got '"
          << BudgetStr << "'\n";
      return ExitUsage;
    }
  }
  pta::ContextKind Kind;
  unsigned K;
  if (!parseAnalysis(Analysis, Kind, K)) {
    Err << "error: flag '--analysis' got unknown analysis '" << Analysis
        << "'\n";
    return ExitUsage;
  }
  if (SolverKind != "auto" && SolverKind != "wave" && SolverKind != "naive") {
    Err << "error: flag '--solver' got unknown engine '" << SolverKind
        << "' (expected auto|wave|naive)\n";
    return ExitUsage;
  }
  // The sink must outlive every traced phase below; the guard uninstalls
  // it on all exits so spans can never outlive their destination.
  ScopedTraceSink Trace(!TraceOut.empty());
  obs::MetricsRegistry Reg;

  int Exit = ExitOk;
  Timer PhaseClock;
  std::unique_ptr<ir::Program> P;
  {
    obs::ScopedSpan Span("parse");
    P = load(Argv[2], Err, Exit);
  }
  if (!P)
    return Exit;
  Reg.gauge("phase.parse_seconds").set(PhaseClock.seconds());
  PhaseClock.reset();
  std::unique_ptr<ir::ClassHierarchy> CHPtr;
  {
    obs::ScopedSpan Span("cha");
    CHPtr = std::make_unique<ir::ClassHierarchy>(*P);
  }
  ir::ClassHierarchy &CH = *CHPtr;
  Reg.gauge("phase.cha_seconds").set(PhaseClock.seconds());

  std::unique_ptr<pta::AllocTypeAbstraction> TypeHeap;
  core::MahjongResult MR;
  pta::AnalysisOptions Opts;
  Opts.Kind = Kind;
  Opts.K = K;
  Opts.TimeBudgetSeconds = Budget;
  Opts.Engine = SolverKind == "naive"  ? pta::SolverEngine::Naive
                : SolverKind == "auto" ? pta::SolverEngine::Auto
                                       : pta::SolverEngine::Wave;
  if (HeapKind == "mahjong") {
    core::MahjongOptions MOpts;
    MOpts.PreEngine = Opts.Engine;
    MR = core::buildMahjongHeap(*P, CH, MOpts);
    Opts.Heap = MR.Heap.get();
    Out << "mahjong heap: " << MR.numAllocSiteObjects() << " sites -> "
        << MR.numMahjongObjects() << " objects (pre " << std::fixed
        << std::setprecision(2)
        << MR.PreSeconds + MR.FPGSeconds + MR.MahjongSeconds << "s)\n";
    Reg.gauge("phase.pre_analysis_seconds").set(MR.PreSeconds);
    Reg.gauge("phase.fpg_build_seconds").set(MR.FPGSeconds);
    Reg.gauge("phase.mahjong_merge_seconds").set(MR.MahjongSeconds);
    Reg.counter("mahjong.alloc_sites").set(MR.numAllocSiteObjects());
    Reg.counter("mahjong.objects").set(MR.numMahjongObjects());
  } else if (HeapKind == "type") {
    TypeHeap = std::make_unique<pta::AllocTypeAbstraction>(*P);
    Opts.Heap = TypeHeap.get();
  } else if (HeapKind != "site") {
    Err << "error: flag '--heap' got unknown heap '" << HeapKind << "'\n";
    return ExitUsage;
  }

  std::unique_ptr<pta::PTAResult> R;
  {
    obs::ScopedSpan Span("main-analysis");
    R = pta::runPointerAnalysis(*P, CH, Opts);
  }
  Reg.gauge("phase.main_analysis_seconds").set(R->Stats.Seconds);
  if (R->Stats.TimedOut) {
    Err << Analysis << ": exceeded the " << std::fixed
        << std::setprecision(0) << Budget << "s budget (unscalable)\n";
    return ExitAnalysisError;
  }
  clients::ClientResults CR = clients::evaluateClients(*R);
  Out << Analysis << " (" << HeapKind << " heap): " << std::fixed
      << std::setprecision(2) << R->Stats.Seconds << "s\n";
  Out << "  reachable methods:  " << CR.ReachableMethods << "\n";
  Out << "  call graph edges:   " << CR.CallGraphEdges << "\n";
  Out << "  poly call sites:    " << CR.PolyCallSites
      << " (mono: " << CR.MonoCallSites << ")\n";
  Out << "  may-fail casts:     " << CR.MayFailCasts << " / " << CR.TotalCasts
      << "\n";
  // Under --solver auto the heuristic's choice is part of the story:
  // "auto:wave" says both what was asked and what ran.
  std::string EngineShown =
      SolverKind == "auto" ? "auto:" + R->EngineName : SolverKind;
  Out << "  solver (" << EngineShown << "):     " << R->Stats.WorklistPops
      << " pops";
  // SCC collapse and the filter bitmaps belong to the wave engine; the
  // naive engine has neither, so its counters would only ever read 0.
  if (R->EngineName == "wave")
    Out << ", " << R->Stats.SCCsCollapsed << " SCCs collapsed ("
        << R->Stats.NodesCollapsed << " nodes), "
        << R->Stats.FilterBitmapHits << " filter bitmap hits";
  Out << "\n";
  Out << "  set bytes: " << R->Stats.SetBytes << "\n";
  if (!FactsDir.empty()) {
    if (!pta::writeAllFacts(*R, FactsDir)) {
      Err << "error: cannot write facts into '" << FactsDir << "'\n";
      return ExitIOError;
    }
    Out << "facts written to " << FactsDir << "/*.facts\n";
  }
  if (!SnapPath.empty()) {
    PhaseClock.reset();
    std::string SaveErr;
    if (!serve::saveSnapshot(*R, SnapPath, SaveErr)) {
      Err << "error: " << SaveErr << "\n";
      return ExitIOError;
    }
    Reg.gauge("phase.snapshot_encode_seconds").set(PhaseClock.seconds());
    Out << "snapshot written to " << SnapPath << "\n";
  }

  // Assemble the rest of the registry: every PTAStats field, the client
  // metrics, and the per-wave latency histogram of this run.
  pta::exportStats(R->Stats, Reg);
  Reg.counter("clients.reachable_methods").set(CR.ReachableMethods);
  Reg.counter("clients.call_graph_edges").set(CR.CallGraphEdges);
  Reg.counter("clients.poly_call_sites").set(CR.PolyCallSites);
  Reg.counter("clients.mono_call_sites").set(CR.MonoCallSites);
  Reg.counter("clients.may_fail_casts").set(CR.MayFailCasts);
  Reg.counter("clients.total_casts").set(CR.TotalCasts);
  if (R->WaveMicros.count() > 0)
    Reg.histogram("pta.wave_us").mergeFrom(R->WaveMicros);

  if (!TraceOut.empty()) {
    // Quiesce: no traced work remains, so uninstall before serializing.
    Trace.release();
    std::string TraceErr;
    if (!Trace.sink().writeFile(TraceOut, TraceErr)) {
      Err << "error: " << TraceErr << "\n";
      return ExitIOError;
    }
    Out << "trace written to " << TraceOut << " ("
        << Trace.sink().eventCount() << " events, "
        << Trace.sink().laneCount() << " lanes)\n";
  }
  if (!MetricsOut.empty()) {
    if (!writeTextFile(MetricsOut,
                       wantsPrometheus(MetricsOut) ? Reg.toPrometheus()
                                                   : Reg.toJson(),
                       Err))
      return ExitIOError;
    Out << "metrics written to " << MetricsOut << "\n";
  }
  return ExitOk;
}

int cmdGen(int Argc, const char *const *Argv, std::ostream &Out,
           std::ostream &Err) {
  if (Argc < 4)
    return usage(Err);
  std::string Profile = Argv[2], OutPath = Argv[3], ScaleStr;
  FlagParser Flags(Argc, Argv, 4, Err);
  while (!Flags.done()) {
    if (Flags.take("--scale", ScaleStr))
      continue;
    return Flags.malformed() ? ExitUsage : Flags.unknown();
  }
  double Scale = 1.0;
  if (!ScaleStr.empty()) {
    char *End = nullptr;
    Scale = std::strtod(ScaleStr.c_str(), &End);
    if (!End || *End != '\0' || Scale <= 0) {
      Err << "error: flag '--scale' needs a positive number, got '"
          << ScaleStr << "'\n";
      return ExitUsage;
    }
  }
  const std::vector<std::string> &Names = workload::benchmarkNames();
  if (std::find(Names.begin(), Names.end(), Profile) == Names.end()) {
    Err << "error: unknown profile '" << Profile << "' (expected one of:";
    for (const std::string &N : Names)
      Err << " " << N;
    Err << ")\n";
    return ExitUsage;
  }
  std::unique_ptr<ir::Program> P =
      workload::buildBenchmarkProgram(Profile, Scale);
  if (!writeTextFile(OutPath, ir::printProgram(*P), Err))
    return ExitIOError;
  Out << Profile << " written to " << OutPath << " (" << P->numMethods()
      << " methods, " << P->numObjs() << " objects)\n";
  return ExitOk;
}

int cmdQuery(int Argc, const char *const *Argv, std::ostream &Out,
             std::ostream &Err) {
  if (Argc < 4)
    return usage(Err);
  int Exit = ExitOk;
  auto D = loadSnap(Argv[2], Err, Exit);
  if (!D)
    return Exit;
  std::string Text;
  for (int I = 3; I < Argc; ++I) {
    if (I > 3)
      Text += ' ';
    Text += Argv[I];
  }
  serve::QueryEngine Engine(D);
  serve::QueryResult R = Engine.run(Text);
  if (!R.Ok) {
    Err << "error: " << R.Error << "\n";
    return ExitParseError;
  }
  if (R.HasVerdict) {
    Out << (R.Verdict ? "true" : "false") << "\n";
  } else {
    Out << R.items().size() << " result(s)\n";
    for (const std::string &Item : R.items())
      Out << "  " << Item << "\n";
  }
  return ExitOk;
}

/// Parses a non-negative integer flag value into \p Out (bounded by
/// [\p Min, \p Max]); reports with the offending flag name on failure.
bool parseUnsignedFlag(const char *Flag, const std::string &S,
                       unsigned long Min, unsigned long Max,
                       unsigned long &Out, std::ostream &Err) {
  char *End = nullptr;
  unsigned long N = std::strtoul(S.c_str(), &End, 10);
  if (S.empty() || !End || *End != '\0' || N < Min || N > Max) {
    Err << "error: flag '" << Flag << "' needs an integer in [" << Min
        << ", " << Max << "], got '" << S << "'\n";
    return false;
  }
  Out = N;
  return true;
}

/// SIGINT/SIGTERM flag for `serve`: the handler may only touch a
/// lock-free atomic, so the run loop polls this.
std::atomic<bool> ServeInterrupted{false};

void serveSignalHandler(int) {
  ServeInterrupted.store(true, std::memory_order_relaxed);
}

int cmdServe(int Argc, const char *const *Argv, std::ostream &Out,
             std::ostream &Err) {
  if (Argc < 3)
    return usage(Err);
  std::string Listen = "127.0.0.1:0", MaxConnsStr, MaxInflightStr,
              SwapFifo, DurationStr, MetricsOut, SlowQueryStr,
              MetricsIntervalStr;
  FlagParser Flags(Argc, Argv, 3, Err);
  while (!Flags.done()) {
    if (Flags.take("--listen", Listen) ||
        Flags.take("--max-conns", MaxConnsStr) ||
        Flags.take("--max-inflight", MaxInflightStr) ||
        Flags.take("--swap-fifo", SwapFifo) ||
        Flags.take("--duration", DurationStr) ||
        Flags.take("--metrics-out", MetricsOut) ||
        Flags.take("--slow-query-us", SlowQueryStr) ||
        Flags.take("--metrics-interval", MetricsIntervalStr))
      continue;
    return Flags.malformed() ? ExitUsage : Flags.unknown();
  }
  net::ServerConfig Cfg;
  std::string HpErr;
  if (!net::parseHostPort(Listen, Cfg.Host, Cfg.Port, HpErr)) {
    Err << "error: flag '--listen' got '" << Listen << "': " << HpErr
        << "\n";
    return ExitUsage;
  }
  unsigned long U;
  if (!MaxConnsStr.empty()) {
    if (!parseUnsignedFlag("--max-conns", MaxConnsStr, 1, 65536, U, Err))
      return ExitUsage;
    Cfg.MaxConns = static_cast<unsigned>(U);
  }
  if (!MaxInflightStr.empty()) {
    if (!parseUnsignedFlag("--max-inflight", MaxInflightStr, 1, 65536, U,
                           Err))
      return ExitUsage;
    Cfg.MaxInflight = static_cast<unsigned>(U);
  }
  Cfg.SwapFifo = SwapFifo;
  if (!SlowQueryStr.empty()) {
    if (!parseUnsignedFlag("--slow-query-us", SlowQueryStr, 1, 3600000000UL,
                           U, Err))
      return ExitUsage;
    Cfg.SlowQueryMicros = U;
  }
  double Duration = 0; // 0 = run until SIGINT/SIGTERM
  if (!DurationStr.empty()) {
    char *End = nullptr;
    Duration = std::strtod(DurationStr.c_str(), &End);
    if (!End || *End != '\0' || Duration < 0) {
      Err << "error: flag '--duration' needs a non-negative number, got '"
          << DurationStr << "'\n";
      return ExitUsage;
    }
  }
  double MetricsInterval = 0; // 0 = only the final write
  if (!MetricsIntervalStr.empty()) {
    char *End = nullptr;
    MetricsInterval = std::strtod(MetricsIntervalStr.c_str(), &End);
    if (!End || *End != '\0' || MetricsInterval <= 0) {
      Err << "error: flag '--metrics-interval' needs a positive number, "
             "got '"
          << MetricsIntervalStr << "'\n";
      return ExitUsage;
    }
    if (MetricsOut.empty()) {
      Err << "error: flag '--metrics-interval' requires --metrics-out\n";
      return ExitUsage;
    }
  }

  int Exit = ExitOk;
  auto D = loadSnap(Argv[2], Err, Exit);
  if (!D)
    return Exit;
  net::SnapshotRegistry Registry(std::move(D), Argv[2]);

  // The flight recorder is always on for a server's lifetime: spans from
  // every request flow into bounded rings, `trace-dump` serves them live,
  // and a fatal signal writes the last spans to stderr before dying.
  obs::FlightRecorder Recorder;
  Cfg.Recorder = &Recorder;
  net::SnapshotServer Server(Registry, Cfg);
  std::string StartErr;
  if (!Server.start(StartErr)) {
    Err << "error: " << StartErr << "\n";
    return ExitIOError;
  }
  Out << "listening on " << Server.host() << ":" << Server.port() << "\n"
      << std::flush;

  obs::installTraceSink(&Recorder);
  Recorder.installCrashDump(/*Fd=*/2);

  using Clock = std::chrono::steady_clock;
  Clock::time_point Deadline =
      Duration > 0 ? Clock::now() + std::chrono::duration_cast<
                                        Clock::duration>(
                                        std::chrono::duration<double>(
                                            Duration))
                   : Clock::time_point::max();
  Clock::time_point NextMetricsWrite =
      MetricsInterval > 0
          ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(MetricsInterval))
          : Clock::time_point::max();
  ServeInterrupted.store(false, std::memory_order_relaxed);
  auto OldInt = std::signal(SIGINT, serveSignalHandler);
  auto OldTerm = std::signal(SIGTERM, serveSignalHandler);
  while (!ServeInterrupted.load(std::memory_order_relaxed) &&
         Clock::now() < Deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (Clock::now() >= NextMetricsWrite) {
      Server.refreshGauges();
      obs::MetricsRegistry &Live = Server.metrics();
      // Best effort: a transient write failure must not kill the server.
      std::ostringstream Ignored;
      writeTextFile(MetricsOut,
                    wantsPrometheus(MetricsOut) ? Live.toPrometheus()
                                                : Live.toJson(),
                    Ignored);
      NextMetricsWrite =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(MetricsInterval));
    }
  }
  std::signal(SIGINT, OldInt);
  std::signal(SIGTERM, OldTerm);

  Server.stop();
  obs::FlightRecorder::uninstallCrashDump();
  obs::installTraceSink(nullptr);
  Server.refreshGauges();
  obs::MetricsRegistry &Reg = Server.metrics();
  if (!MetricsOut.empty()) {
    if (!writeTextFile(MetricsOut,
                       wantsPrometheus(MetricsOut) ? Reg.toPrometheus()
                                                   : Reg.toJson(),
                       Err))
      return ExitIOError;
    Out << "metrics written to " << MetricsOut << "\n";
  }
  Out << "server drained: " << Reg.counter("net.queries_total").value()
      << " queries, " << Reg.counter("net.accepted_total").value()
      << " connections, " << Registry.swapCount() << " swaps\n";
  return ExitOk;
}

int cmdServeBench(int Argc, const char *const *Argv, std::ostream &Out,
                  std::ostream &Err) {
  if (Argc < 3)
    return usage(Err);
  std::string SpecPath, HeartbeatStr, Connect, MetricsOut;
  bool Smoke = false;
  FlagParser Flags(Argc, Argv, 3, Err);
  while (!Flags.done()) {
    if (Flags.take("--spec", SpecPath) ||
        Flags.take("--heartbeat", HeartbeatStr) ||
        Flags.take("--connect", Connect) ||
        Flags.take("--metrics-out", MetricsOut))
      continue;
    if (Flags.takeBare("--smoke")) {
      Smoke = true;
      continue;
    }
    return Flags.malformed() ? ExitUsage : Flags.unknown();
  }
  double Heartbeat = -1;
  if (!HeartbeatStr.empty()) {
    char *End = nullptr;
    Heartbeat = std::strtod(HeartbeatStr.c_str(), &End);
    if (!End || *End != '\0' || Heartbeat < 0) {
      Err << "error: flag '--heartbeat' needs a non-negative number, "
             "got '"
          << HeartbeatStr << "'\n";
      return ExitUsage;
    }
  }
  serve::QueryWorkload W;
  if (!SpecPath.empty()) {
    std::ifstream In(SpecPath);
    if (!In) {
      Err << "error: cannot open '" << SpecPath << "'\n";
      return ExitIOError;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::string SpecErr;
    if (!serve::parseWorkloadSpec(Buf.str(), W, SpecErr)) {
      Err << SpecPath << ": " << SpecErr << "\n";
      return ExitParseError;
    }
  }
  if (Smoke) {
    // The CI smoke contract: tiny, fast, and still concurrent. Socket
    // mode gets a larger count so QPS amortizes connect overhead into a
    // stable number.
    W.Clients = 2;
    W.QueriesPerClient = Connect.empty() ? 250 : 2500;
    W.DurationSeconds = 0;
  }
  int Exit = ExitOk;
  auto D = loadSnap(Argv[2], Err, Exit);
  if (!D)
    return Exit;
  // --heartbeat overrides the spec; progress lines go to stderr so the
  // JSON report on stdout stays machine-parseable.
  if (Heartbeat >= 0)
    W.HeartbeatSeconds = Heartbeat;

  // --connect only picks the transport. The snapshot argument supplies
  // the key pools either way, so the generated stream is the same in both
  // modes.
  std::unique_ptr<net::SnapshotRegistry> Local;
  std::unique_ptr<net::Transport> Transport;
  if (Connect.empty()) {
    Local = std::make_unique<net::SnapshotRegistry>(D, Argv[2]);
    Transport = std::make_unique<net::LoopbackTransport>(*Local);
  } else {
    std::string Host, HpErr;
    uint16_t Port = 0;
    if (!net::parseHostPort(Connect, Host, Port, HpErr)) {
      Err << "error: flag '--connect' got '" << Connect << "': " << HpErr
          << "\n";
      return ExitUsage;
    }
    Transport = std::make_unique<net::SocketTransport>(Host, Port);
  }
  net::TrafficReport Rep = net::runTraffic(*D, W, *Transport, &Err);
  Out << Rep.toJson() << "\n";
  if (!MetricsOut.empty() && !writeTextFile(MetricsOut, Rep.toJson(), Err))
    return ExitIOError;
  if (Rep.Queries == 0 || Rep.Failed != 0 || Rep.TransportErrors != 0) {
    Err << "error: serve-bench answered " << Rep.Queries
        << " queries with " << Rep.Failed << " failures and "
        << Rep.TransportErrors << " transport errors\n";
    return ExitAnalysisError;
  }
  return ExitOk;
}

/// One binary-protocol round trip from a shell: `net-query HOST:PORT
/// verb args...`. Prints the raw response text, so admin verbs whose
/// payload is itself structured (trace-dump JSON, health JSON, stats
/// Prometheus text) pipe straight into their consumers without the
/// line-protocol envelope in the way.
int cmdNetQuery(int Argc, const char *const *Argv, std::ostream &Out,
                std::ostream &Err) {
  if (Argc < 4)
    return usage(Err);
  std::string Host;
  uint16_t Port = 0;
  std::string HpErr;
  if (!net::parseHostPort(Argv[2], Host, Port, HpErr) || Port == 0) {
    Err << "error: net-query got '" << Argv[2] << "': "
        << (Port == 0 && HpErr.empty() ? "a concrete port is required"
                                       : HpErr)
        << "\n";
    return ExitUsage;
  }
  std::string Text;
  for (int I = 3; I < Argc; ++I) {
    if (!Text.empty())
      Text += ' ';
    Text += Argv[I];
  }
  net::Client Client;
  std::string NetErr;
  if (!Client.connect(Host, Port, NetErr)) {
    Err << "error: " << NetErr << "\n";
    return ExitIOError;
  }
  net::Response R;
  if (!Client.query(Text, R, NetErr)) {
    Err << "error: " << NetErr << "\n";
    return ExitIOError;
  }
  if (!R.Ok) {
    Err << "error: " << R.Text << "\n";
    return ExitAnalysisError;
  }
  Out << R.Text;
  if (!R.Text.empty() && R.Text.back() != '\n')
    Out << '\n';
  return ExitOk;
}

int cmdMergeReport(int Argc, const char *const *Argv, std::ostream &Out,
                   std::ostream &Err) {
  if (Argc < 3)
    return usage(Err);
  int Exit = ExitOk;
  auto P = load(Argv[2], Err, Exit);
  if (!P)
    return Exit;
  ir::ClassHierarchy CH(*P);
  core::MahjongResult MR = core::buildMahjongHeap(*P, CH);
  auto Classes = core::equivalenceClasses(*MR.FPG, MR.Modeling);
  Out << MR.numAllocSiteObjects() << " sites -> " << Classes.size()
      << " classes\n";
  for (const auto &[Repr, Members] : Classes) {
    if (Members.size() == 1)
      continue;
    Out << "  class of " << P->describeObj(Repr) << " (" << Members.size()
        << " members):";
    for (size_t I = 0; I < Members.size() && I < 8; ++I)
      Out << " o" << Members[I].idx();
    if (Members.size() > 8)
      Out << " ...";
    Out << "\n";
  }
  return ExitOk;
}

int cmdDot(int Argc, const char *const *Argv, const char *Which,
           std::ostream &Out, std::ostream &Err) {
  bool NeedsObj = std::strcmp(Which, "callgraph") != 0;
  if (Argc < (NeedsObj ? 4 : 3))
    return usage(Err);
  int Exit = ExitOk;
  auto P = load(Argv[2], Err, Exit);
  if (!P)
    return Exit;
  ir::ClassHierarchy CH(*P);
  pta::AnalysisOptions PreOpts;
  auto Pre = pta::runPointerAnalysis(*P, CH, PreOpts);
  if (!NeedsObj) {
    Out << core::callGraphToDot(*Pre);
    return ExitOk;
  }
  char *End = nullptr;
  long Idx = std::strtol(Argv[3], &End, 10);
  if (!End || *End != '\0' || Idx < 0) {
    Err << "error: malformed object index '" << Argv[3] << "'\n";
    return ExitUsage;
  }
  if (static_cast<uint32_t>(Idx) >= P->numObjs()) {
    Err << "error: object index " << Idx << " out of range (0.."
        << P->numObjs() - 1 << ")\n";
    return ExitUsage;
  }
  core::FieldPointsToGraph G(*Pre);
  if (std::strcmp(Which, "fpg") == 0) {
    Out << core::fpgToDot(G, ObjId(static_cast<uint32_t>(Idx)));
  } else {
    core::DFACache Cache(G);
    Out << core::dfaToDot(G, Cache, ObjId(static_cast<uint32_t>(Idx)));
  }
  return ExitOk;
}

} // namespace

int mahjong::cli::runCli(int Argc, const char *const *Argv, std::ostream &Out,
                         std::ostream &Err) {
  if (Argc < 2)
    return usage(Err);
  const char *Cmd = Argv[1];
  if (std::strcmp(Cmd, "analyze") == 0)
    return cmdAnalyze(Argc, Argv, Out, Err);
  if (std::strcmp(Cmd, "gen") == 0)
    return cmdGen(Argc, Argv, Out, Err);
  if (std::strcmp(Cmd, "query") == 0)
    return cmdQuery(Argc, Argv, Out, Err);
  if (std::strcmp(Cmd, "serve") == 0)
    return cmdServe(Argc, Argv, Out, Err);
  if (std::strcmp(Cmd, "serve-bench") == 0)
    return cmdServeBench(Argc, Argv, Out, Err);
  if (std::strcmp(Cmd, "net-query") == 0)
    return cmdNetQuery(Argc, Argv, Out, Err);
  if (std::strcmp(Cmd, "merge-report") == 0)
    return cmdMergeReport(Argc, Argv, Out, Err);
  if (std::strcmp(Cmd, "dot-fpg") == 0)
    return cmdDot(Argc, Argv, "fpg", Out, Err);
  if (std::strcmp(Cmd, "dot-dfa") == 0)
    return cmdDot(Argc, Argv, "dfa", Out, Err);
  if (std::strcmp(Cmd, "dot-callgraph") == 0)
    return cmdDot(Argc, Argv, "callgraph", Out, Err);
  Err << "error: unknown command '" << Cmd << "'\n";
  usage(Err);
  return ExitUsage;
}
