//===-- bench/bench_preanalysis.cpp - Paper §6.1.1 ----------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regenerates the pre-analysis statistics of the paper's §6.1.1 and the
// Table 2 pre-analysis column: per program, the ci / FPG / MAHJONG time
// breakdown, the FPG size (objects, fields, edges), NFA sizes (average
// and maximum over sampled roots), and shared-automata statistics.
//
// It then benchmarks the wave engine against the naive reference on the
// ci pre-analysis (the phase MAHJONG's heap modeling consumes). The race
// checks that both engines computed the identical solution (canonical
// result digests) and emits the comparison as machine-readable JSON for
// CI trend tracking.
//
// Flags:
//   --smoke        reduced workload scale (fast; what CI runs)
//   --json PATH    where to write the JSON report (default
//                  BENCH_solver.json)
//   --only NAME    restrict both sections to one benchmark profile
//   --solver-only  skip the Table-2 breakdown; run just the engine
//                  comparison (for solver-perf iteration)
//   --set-rep NAME set-representation backend for the engine race
//                  (chunked|hierarchy; default chunked) — both the
//                  baseline and the candidate engine use it, so the
//                  SetBytes-consistency check stays meaningful
//   --set-rep-race instead of a two-engine race, run both engines x
//                  both set backends per profile and verify all four
//                  runs agree (canonical digests); records solve time
//                  and set bytes per run; writes BENCH_setrep.json
//   --auto-check   instead of a two-engine race, run both engines
//                  per profile and verify SolverEngine::Auto's pre-solve
//                  pick is never slower than the best manual choice by
//                  more than 10% (plus a small absolute epsilon so
//                  millisecond smoke runs don't flake); writes
//                  BENCH_auto_solver.json
//
// Exit code is nonzero if any profile's engines disagree, if identical
// engines report diverging SetBytes (that stat is engine-invariant by
// contract), or if --auto-check finds a bad pick.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "pta/ResultDigest.h"
#include "pta/SetRep.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <vector>

using namespace mahjong;
using namespace mahjong::bench;

namespace {

/// The engines the harness races, reference first: the two-engine race
/// times the second against the first.
struct EngineSpec {
  const char *Name;
  pta::SolverEngine Engine;
};

constexpr EngineSpec Engines[] = {
    {"naive", pta::SolverEngine::Naive},
    {"wave", pta::SolverEngine::Wave},
};

struct SolverRow {
  std::string Name;
  double BaseSeconds = 0, CandSeconds = 0;
  uint64_t BasePops = 0, CandPops = 0;
  uint64_t BaseSetBytes = 0, CandSetBytes = 0;
  // Candidate-engine internals (zero where the engine lacks the feature).
  uint64_t SCCsCollapsed = 0, NodesCollapsed = 0, FilterBitmapHits = 0;
  bool Identical = false;
  double speedup() const {
    return CandSeconds > 0 ? BaseSeconds / CandSeconds : 0;
  }
};

std::unique_ptr<pta::PTAResult> runEngine(const ir::Program &P,
                                          const ir::ClassHierarchy &CH,
                                          pta::SolverEngine Engine,
                                          pta::SetRep Rep) {
  pta::AnalysisOptions Opts; // ci, alloc-site heap, no budget
  Opts.Engine = Engine;
  Opts.Rep = Rep;
  return pta::runPointerAnalysis(P, CH, Opts);
}

void writeJson(const std::string &Path, const char *Mode,
               const EngineSpec &Base, const EngineSpec &Cand,
               const std::vector<SolverRow> &Rows,
               const SolverRow *Largest) {
  std::ofstream Out(Path);
  Out << "{\n  \"mode\": \"" << Mode << "\",\n  \"base_engine\": \""
      << Base.Name << "\",\n  \"cand_engine\": \"" << Cand.Name
      << "\",\n  \"profiles\": [\n";
  for (size_t I = 0; I < Rows.size(); ++I) {
    const SolverRow &R = Rows[I];
    char Buf[768];
    std::snprintf(
        Buf, sizeof(Buf),
        "    {\"name\": \"%s\", \"base_seconds\": %.4f, "
        "\"cand_seconds\": %.4f, \"speedup\": %.2f, "
        "\"base_pops\": %llu, \"cand_pops\": %llu, "
        "\"base_set_bytes\": %llu, \"cand_set_bytes\": %llu, "
        "\"sccs_collapsed\": %llu, \"nodes_collapsed\": %llu, "
        "\"filter_bitmap_hits\": %llu",
        R.Name.c_str(), R.BaseSeconds, R.CandSeconds, R.speedup(),
        (unsigned long long)R.BasePops, (unsigned long long)R.CandPops,
        (unsigned long long)R.BaseSetBytes,
        (unsigned long long)R.CandSetBytes,
        (unsigned long long)R.SCCsCollapsed,
        (unsigned long long)R.NodesCollapsed,
        (unsigned long long)R.FilterBitmapHits);
    Out << Buf;
    Out << ", \"identical\": " << (R.Identical ? "true" : "false") << "}"
        << (I + 1 < Rows.size() ? "," : "") << "\n";
  }
  Out << "  ]";
  if (Largest) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf),
                  ",\n  \"largest\": {\"name\": \"%s\", \"speedup\": %.2f}",
                  Largest->Name.c_str(), Largest->speedup());
    Out << Buf;
  }
  Out << "\n}\n";
}

/// --auto-check: races both concrete engines per profile and grades
/// chooseSolverEngine's pre-solve pick against the measured best. The
/// tolerance is relative (10%) plus a small absolute epsilon — at smoke
/// scale every engine solves in milliseconds and pure timer noise would
/// otherwise flunk a correct pick. Exits nonzero on any bad pick or any
/// digest disagreement between the engines themselves.
int runAutoCheck(const std::vector<std::string> &Names, double Scale,
                 bool Smoke, std::string JsonPath) {
  constexpr double RelTolerance = 1.10;
  constexpr double AbsEpsilonSeconds = 0.05;
  if (JsonPath.empty())
    JsonPath = "BENCH_auto_solver.json";
  std::printf("== Adaptive engine selection (--solver auto) vs best manual "
              "choice%s ==\n\n",
              Smoke ? " [smoke scale]" : "");
  std::printf("%-12s %9s %9s | %-8s %9s %9s %5s\n", "program", "naive(s)",
              "wave(s)", "chosen", "chosen(s)", "best(s)", "ok");
  struct AutoRow {
    std::string Name;
    double Seconds[2] = {0, 0}; // naive, wave
    const char *Chosen = "";
    double ChosenSeconds = 0, BestSeconds = 0;
    bool Ok = false, Identical = false;
  };
  std::vector<AutoRow> Rows;
  bool AllOk = true;
  for (const std::string &Name : Names) {
    auto P = workload::buildBenchmarkProgram(Name, Scale);
    ir::ClassHierarchy CH(*P);
    AutoRow Row;
    Row.Name = Name;
    const pta::SolverEngine Order[2] = {pta::SolverEngine::Naive,
                                        pta::SolverEngine::Wave};
    uint64_t Digest[2] = {0, 0};
    for (int E = 0; E < 2; ++E) { // one solution alive at a time
      auto R = runEngine(*P, CH, Order[E], pta::SetRep::Chunked);
      Row.Seconds[E] = R->Stats.Seconds;
      Digest[E] = pta::canonicalResultDigest(*R);
    }
    Row.Identical = Digest[0] == Digest[1];
    pta::SolverEngine Chosen = pta::chooseSolverEngine(*P);
    Row.Chosen = pta::solverEngineName(Chosen);
    Row.ChosenSeconds =
        Row.Seconds[Chosen == pta::SolverEngine::Naive ? 0 : 1];
    Row.BestSeconds = std::min(Row.Seconds[0], Row.Seconds[1]);
    Row.Ok = Row.Identical &&
             Row.ChosenSeconds <=
                 Row.BestSeconds * RelTolerance + AbsEpsilonSeconds;
    AllOk &= Row.Ok;
    std::printf("%-12s %9.3f %9.3f | %-8s %9.3f %9.3f %5s\n", Name.c_str(),
                Row.Seconds[0], Row.Seconds[1], Row.Chosen, Row.ChosenSeconds,
                Row.BestSeconds, Row.Ok ? "yes" : "NO");
    Rows.push_back(Row);
  }
  std::ofstream Out(JsonPath);
  Out << "{\n  \"mode\": \"" << (Smoke ? "smoke" : "full")
      << "\",\n  \"check\": \"auto-selection\""
      << ",\n  \"rel_tolerance\": " << RelTolerance
      << ",\n  \"abs_epsilon_seconds\": " << AbsEpsilonSeconds
      << ",\n  \"profiles\": [\n";
  for (size_t I = 0; I < Rows.size(); ++I) {
    const AutoRow &R = Rows[I];
    char Buf[512];
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"name\": \"%s\", \"naive_seconds\": %.4f, "
                  "\"wave_seconds\": %.4f, "
                  "\"chosen\": \"%s\", \"chosen_seconds\": %.4f, "
                  "\"best_seconds\": %.4f, \"identical\": %s, \"ok\": %s}%s\n",
                  R.Name.c_str(), R.Seconds[0], R.Seconds[1], R.Chosen, R.ChosenSeconds, R.BestSeconds,
                  R.Identical ? "true" : "false", R.Ok ? "true" : "false",
                  I + 1 < Rows.size() ? "," : "");
    Out << Buf;
  }
  Out << "  ]\n}\n";
  std::printf("\nwrote %s\n", JsonPath.c_str());
  if (!AllOk) {
    std::fprintf(stderr, "FAIL: auto selection picked a bad engine (or "
                         "engines disagree) on at least one profile\n");
    return 1;
  }
  return 0;
}

/// --set-rep-race: the full backend x engine cross-product per profile.
/// Every run's canonical digest must match the reference (naive engine on
/// the chunked backend): the backends are pure representation swaps, so
/// any divergence is a bug in a filter structure. Per run the JSON
/// records solve seconds and set bytes, plus per (profile, engine) the
/// bytes and time of the hierarchy backend relative to chunked.
int runSetRepRace(const std::vector<std::string> &Names, double Scale,
                  bool Smoke, std::string JsonPath) {
  if (JsonPath.empty())
    JsonPath = "BENCH_setrep.json";
  constexpr pta::SetRep Reps[] = {pta::SetRep::Chunked,
                                  pta::SetRep::Hierarchy};
  std::printf("== Set-representation backends x solver engines "
              "(digest race)%s ==\n\n",
              Smoke ? " [smoke scale]" : "");
  struct Run {
    const char *Engine;
    const char *Rep;
    double Seconds = 0;
    uint64_t SetBytes = 0;
    bool Identical = false;
  };
  struct RaceRow {
    std::string Name;
    std::vector<Run> Runs;
  };
  std::vector<RaceRow> Rows;
  bool AllIdentical = true;
  for (const std::string &Name : Names) {
    auto P = workload::buildBenchmarkProgram(Name, Scale);
    ir::ClassHierarchy CH(*P);
    RaceRow Row;
    Row.Name = Name;
    uint64_t RefDigest = 0;
    bool HaveRef = false;
    std::printf("%s\n", Name.c_str());
    std::printf("  %-8s %-9s %9s %14s %5s\n", "engine", "rep", "sec",
                "set-bytes", "same");
    for (const EngineSpec &E : Engines) {
      double ChunkedSeconds = 0;
      uint64_t ChunkedBytes = 0;
      for (pta::SetRep Rep : Reps) {
        auto R = runEngine(*P, CH, E.Engine, Rep);
        Run Rn;
        Rn.Engine = E.Name;
        Rn.Rep = pta::setRepName(Rep);
        Rn.Seconds = R->Stats.Seconds;
        Rn.SetBytes = R->Stats.SetBytes;
        uint64_t D = pta::canonicalResultDigest(*R);
        if (!HaveRef) {
          RefDigest = D;
          HaveRef = true;
        }
        Rn.Identical = D == RefDigest;
        AllIdentical &= Rn.Identical;
        if (Rep == pta::SetRep::Chunked) {
          ChunkedSeconds = Rn.Seconds;
          ChunkedBytes = Rn.SetBytes;
        }
        std::printf("  %-8s %-9s %9.3f %14llu %5s\n", Rn.Engine, Rn.Rep,
                    Rn.Seconds, (unsigned long long)Rn.SetBytes,
                    Rn.Identical ? "yes" : "NO");
        Row.Runs.push_back(Rn);
      }
      if (ChunkedBytes) {
        const Run &Hier = Row.Runs.back();
        std::printf("  -> %s: hierarchy bytes %.0f%% of chunked, time "
                    "%.2fx\n",
                    E.Name, 100.0 * Hier.SetBytes / ChunkedBytes,
                    ChunkedSeconds > 0 ? Hier.Seconds / ChunkedSeconds : 0);
      }
    }
    Rows.push_back(std::move(Row));
  }
  std::ofstream Out(JsonPath);
  Out << "{\n  \"mode\": \"" << (Smoke ? "smoke" : "full")
      << "\",\n  \"check\": \"set-rep-race\",\n  \"profiles\": [\n";
  for (size_t I = 0; I < Rows.size(); ++I) {
    const RaceRow &Row = Rows[I];
    Out << "    {\"name\": \"" << Row.Name << "\", \"runs\": [\n";
    // chunked is always the first run of each engine pair.
    constexpr size_t NumReps = std::size(Reps);
    for (size_t J = 0; J < Row.Runs.size(); ++J) {
      const Run &Rn = Row.Runs[J];
      const Run &Ref = Row.Runs[J - J % NumReps];
      char Buf[512];
      std::snprintf(
          Buf, sizeof(Buf),
          "      {\"engine\": \"%s\", \"rep\": \"%s\", "
          "\"seconds\": %.4f, \"set_bytes\": %llu, "
          "\"bytes_vs_chunked\": %.4f, \"time_vs_chunked\": %.4f, "
          "\"identical\": %s}%s\n",
          Rn.Engine, Rn.Rep, Rn.Seconds, (unsigned long long)Rn.SetBytes,
          Ref.SetBytes ? (double)Rn.SetBytes / Ref.SetBytes : 0.0,
          Ref.Seconds > 0 ? Rn.Seconds / Ref.Seconds : 0.0,
          Rn.Identical ? "true" : "false",
          J + 1 < Row.Runs.size() ? "," : "");
      Out << Buf;
    }
    Out << "    ]}" << (I + 1 < Rows.size() ? "," : "") << "\n";
  }
  Out << "  ]\n}\n";
  std::printf("\nwrote %s\n", JsonPath.c_str());
  if (!AllIdentical) {
    std::fprintf(stderr, "FAIL: at least one (engine, backend) run "
                         "diverged from the reference solution\n");
    return 1;
  }
  return 0;
}

void printPreAnalysisBreakdown(const std::vector<std::string> &Names,
                               double Scale, bool Smoke) {
  std::printf("== Pre-analysis breakdown (paper Table 2 col. 2 and "
              "§6.1.1)%s ==\n\n",
              Smoke ? " [smoke scale]" : "");
  std::printf("%-12s %7s %7s %7s | %8s %7s %9s | %8s %8s | %9s\n",
              "program", "ci(s)", "fpg(s)", "mj(s)", "objects", "fields",
              "fpg-edges", "nfa-avg", "nfa-max", "dfa-states");
  for (const std::string &Name : Names) {
    auto P = workload::buildBenchmarkProgram(Name, Scale);
    ir::ClassHierarchy CH(*P);
    core::MahjongResult MR = core::buildMahjongHeap(*P, CH);

    // NFA sizes over a deterministic sample of roots (computing all of
    // them is O(objects x edges); the sample reproduces the statistic).
    std::vector<ObjId> Objs = MR.FPG->reachableObjs();
    uint64_t Sum = 0, Max = 0, Sampled = 0;
    size_t Step = std::max<size_t>(1, Objs.size() / 400);
    for (size_t I = 0; I < Objs.size(); I += Step) {
      uint32_t Size = MR.FPG->nfaSize(Objs[I]);
      Sum += Size;
      Max = std::max<uint64_t>(Max, Size);
      ++Sampled;
    }
    std::printf("%-12s %7.2f %7.2f %7.2f | %8u %7u %9llu | %8.1f %8llu "
                "| %9llu\n",
                Name.c_str(), MR.PreSeconds, MR.FPGSeconds,
                MR.MahjongSeconds, MR.FPG->numReachableObjs(),
                MR.FPG->numFieldsUsed(),
                (unsigned long long)MR.FPG->numEdges(),
                Sampled ? static_cast<double>(Sum) / Sampled : 0.0,
                (unsigned long long)Max,
                (unsigned long long)MR.Modeling.DFAStates);
  }
  std::printf("\nExpected shape (paper §6.1.1): the FPG/MAHJONG phases are "
              "a small\nfraction of ci; shared DFA states are far fewer "
              "than the sum of NFA\nsizes (the shared-automata "
              "optimization); NFA sizes vary widely with a\nlong tail "
              "(the paper reports avg 992, max 10034 on eclipse).\n");
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  bool SolverOnly = false;
  bool AutoCheck = false;
  bool SetRepRace = false;
  std::string JsonPath;
  std::string Only;
  std::string SetRepName = "chunked";
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--smoke"))
      Smoke = true;
    else if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc)
      JsonPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--only") && I + 1 < Argc)
      Only = Argv[++I];
    else if (!std::strncmp(Argv[I], "--set-rep=", 10))
      SetRepName = Argv[I] + 10;
    else if (!std::strcmp(Argv[I], "--set-rep") && I + 1 < Argc)
      SetRepName = Argv[++I];
    else if (!std::strcmp(Argv[I], "--solver-only"))
      SolverOnly = true;
    else if (!std::strcmp(Argv[I], "--auto-check"))
      AutoCheck = true;
    else if (!std::strcmp(Argv[I], "--set-rep-race"))
      SetRepRace = true;
    else {
      std::fprintf(stderr,
                   "usage: bench_preanalysis [--smoke] "
                   "[--set-rep NAME] [--json PATH] "
                   "[--only PROFILE] [--solver-only] [--auto-check] "
                   "[--set-rep-race]\n");
      return 2;
    }
  }
  std::optional<pta::SetRep> Rep = pta::parseSetRep(SetRepName);
  if (!Rep) {
    std::fprintf(stderr,
                 "unknown set backend '%s' (chunked, hierarchy)\n",
                 SetRepName.c_str());
    return 2;
  }
  const EngineSpec *Base = &Engines[0], *Cand = &Engines[1];
  const double Scale = Smoke ? 0.05 : 1.0;
  std::vector<std::string> Names;
  for (const std::string &Name : workload::benchmarkNames())
    if (Only.empty() || Name == Only)
      Names.push_back(Name);
  if (Names.empty()) {
    std::fprintf(stderr, "unknown profile '%s'\n", Only.c_str());
    return 2;
  }

  if (SetRepRace)
    return runSetRepRace(Names, Scale, Smoke, JsonPath);

  if (AutoCheck)
    return runAutoCheck(Names, Scale, Smoke, JsonPath);

  if (JsonPath.empty())
    JsonPath = "BENCH_solver.json";

  if (!SolverOnly)
    printPreAnalysisBreakdown(Names, Scale, Smoke);

  std::printf("\n== Solver engines on the ci pre-analysis "
              "(%s vs %s) ==\n\n",
              Base->Name, Cand->Name);
  std::printf("%-12s %9s %9s %8s | %10s %10s | %6s %7s %6s\n", "program",
              "base(s)", "cand(s)", "speedup", "base-pops", "cand-pops",
              "sccs", "merged", "same");
  std::vector<SolverRow> Rows;
  bool AllIdentical = true;
  bool SetBytesConsistent = true;
  for (const std::string &Name : Names) {
    auto P = workload::buildBenchmarkProgram(Name, Scale);
    ir::ClassHierarchy CH(*P);
    SolverRow Row;
    Row.Name = Name;
    auto BaseR = runEngine(*P, CH, Base->Engine, *Rep);
    auto CandR = runEngine(*P, CH, Cand->Engine, *Rep);
    Row.BaseSeconds = BaseR->Stats.Seconds;
    Row.CandSeconds = CandR->Stats.Seconds;
    Row.BasePops = BaseR->Stats.WorklistPops;
    Row.CandPops = CandR->Stats.WorklistPops;
    Row.BaseSetBytes = BaseR->Stats.SetBytes;
    Row.CandSetBytes = CandR->Stats.SetBytes;
    Row.SCCsCollapsed = CandR->Stats.SCCsCollapsed;
    Row.NodesCollapsed = CandR->Stats.NodesCollapsed;
    Row.FilterBitmapHits = CandR->Stats.FilterBitmapHits;
    // Digests, not the text-line comparison: at full scale the canonical
    // lines of two solutions take tens of GB. The lines are built only on
    // a mismatch, to name the first differing fact.
    Row.Identical = pta::canonicalResultDigest(*BaseR) ==
                    pta::canonicalResultDigest(*CandR);
    std::string FirstDiff;
    if (!Row.Identical && !pta::equivalentResults(*BaseR, *CandR, &FirstDiff))
      std::fprintf(stderr, "%s: first difference: %s\n", Name.c_str(),
                   FirstDiff.c_str());
    AllIdentical &= Row.Identical;
    if (Row.Identical && Row.BaseSetBytes != Row.CandSetBytes) {
      // SetBytes is a pure function of the solution (PR 5's contract):
      // identical digests with diverging set bytes mean the stat broke.
      std::fprintf(stderr,
                   "FAIL: %s: engines agree on the solution but report "
                   "different set_bytes (%llu vs %llu)\n",
                   Name.c_str(), (unsigned long long)Row.BaseSetBytes,
                   (unsigned long long)Row.CandSetBytes);
      SetBytesConsistent = false;
    }
    std::printf("%-12s %9.2f %9.2f %7.2fx | %10llu %10llu | %6llu %7llu "
                "%6s\n",
                Name.c_str(), Row.BaseSeconds, Row.CandSeconds,
                Row.speedup(), (unsigned long long)Row.BasePops,
                (unsigned long long)Row.CandPops,
                (unsigned long long)Row.SCCsCollapsed,
                (unsigned long long)Row.NodesCollapsed,
                Row.Identical ? "yes" : "NO");
    Rows.push_back(Row);
  }

  const SolverRow *Largest = nullptr;
  for (const SolverRow &R : Rows)
    if (!Largest || R.BaseSeconds > Largest->BaseSeconds)
      Largest = &R;
  if (Largest)
    std::printf("\nlargest profile by %s solve time: %s "
                "(%.2fs -> %.2fs, %.2fx)\n",
                Base->Name, Largest->Name.c_str(), Largest->BaseSeconds,
                Largest->CandSeconds, Largest->speedup());

  writeJson(JsonPath, Smoke ? "smoke" : "full", *Base, *Cand, Rows, Largest);
  std::printf("wrote %s\n", JsonPath.c_str());

  if (!AllIdentical) {
    std::fprintf(stderr,
                 "FAIL: %s and %s solvers disagree on at least one "
                 "profile\n",
                 Base->Name, Cand->Name);
    return 1;
  }
  if (!SetBytesConsistent)
    return 1;
  return 0;
}
