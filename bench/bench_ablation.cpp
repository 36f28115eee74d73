//===-- bench/bench_ablation.cpp - Design-choice ablations --------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablations for the design choices DESIGN.md calls out:
//
//  (a) Condition 2 of Definition 2.1 on/off — the paper's Example 2.4
//      predicts precision loss when it is off;
//  (b) representative choice (first vs last site) for M-ktype — the
//      paper's Example 3.2 shows it can shift k-type precision;
//  (c) the behavioral-partition index vs the paper's plain
//      object-vs-representative scan — modeling time;
//  (d) shared automata: global DFA states vs the sum of per-object NFA
//      sizes (what an unshared implementation would materialize);
//  (e) pre-analysis precision: ci vs 2type vs 2obj before merging.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/Timer.h"

using namespace mahjong;
using namespace mahjong::bench;
using namespace mahjong::core;

static void condition2Ablation() {
  std::printf("-- (a) Condition 2 on/off (Example 2.4) --\n");
  auto P = workload::buildBenchmarkProgram("checkstyle", 0.3);
  ir::ClassHierarchy CH(*P);
  for (bool Enforce : {true, false}) {
    MahjongOptions Opts;
    Opts.Modeler.EnforceCondition2 = Enforce;
    MahjongResult MR = buildMahjongHeap(*P, CH, Opts);
    RunResult RR = runOne(*P, CH, pta::ContextKind::Object, 2,
                          MR.Heap.get(), 60.0);
    std::printf("  condition2=%-3s objects=%-6u edges=%s poly=%s "
                "mayfail=%s\n",
                Enforce ? "on" : "off", MR.numMahjongObjects(),
                fmtCount(RR, RR.Clients.CallGraphEdges).c_str(),
                fmtCount(RR, RR.Clients.PolyCallSites).c_str(),
                fmtCount(RR, RR.Clients.MayFailCasts).c_str());
  }
  std::printf("  expected: fewer objects but visibly worse client "
              "metrics with it off\n\n");
}

static void representativeAblation() {
  std::printf("-- (b) representative choice for M-3type (Example 3.2) --\n");
  auto P = workload::buildBenchmarkProgram("pmd", 0.3);
  ir::ClassHierarchy CH(*P);
  for (ReprPolicy Policy : {ReprPolicy::FirstSite, ReprPolicy::LastSite}) {
    MahjongOptions Opts;
    Opts.Modeler.Repr = Policy;
    MahjongResult MR = buildMahjongHeap(*P, CH, Opts);
    RunResult RR =
        runOne(*P, CH, pta::ContextKind::Type, 3, MR.Heap.get(), 60.0);
    std::printf("  repr=%-5s edges=%s poly=%s mayfail=%s\n",
                Policy == ReprPolicy::FirstSite ? "first" : "last",
                fmtCount(RR, RR.Clients.CallGraphEdges).c_str(),
                fmtCount(RR, RR.Clients.PolyCallSites).c_str(),
                fmtCount(RR, RR.Clients.MayFailCasts).c_str());
  }
  std::printf("  expected: small or no differences — the choice affects "
              "which class\n  contains the representative's allocation "
              "site, hence k-type contexts\n\n");
}

static void partitionAblation() {
  std::printf("-- (c) partition index vs plain scan: modeling time --\n");
  auto P = workload::buildBenchmarkProgram("eclipse", 0.4);
  ir::ClassHierarchy CH(*P);
  pta::AnalysisOptions PreOpts;
  auto Pre = pta::runPointerAnalysis(*P, CH, PreOpts);
  FieldPointsToGraph G(*Pre);
  for (bool Partition : {false, true}) {
    DFACache Cache(G);
    HeapModelerOptions Opts;
    Opts.UsePartitionIndex = Partition;
    HeapModelerResult R = modelHeap(G, Cache, Opts);
    std::printf("  %-10s %7.3fs classes=%u pairs-tested=%llu\n",
                Partition ? "partition" : "scan", R.Seconds, R.NumClasses,
                (unsigned long long)R.PairsTested);
  }
  std::printf("  expected: identical classes; the partition index removes\n"
              "  the object-vs-class quadratic scan on merge-resistant "
              "heaps\n\n");
}

static void sharedAutomataAblation() {
  std::printf("-- (d) shared automata (paper §5) --\n");
  auto P = workload::buildBenchmarkProgram("checkstyle", 0.3);
  ir::ClassHierarchy CH(*P);
  MahjongResult MR = buildMahjongHeap(*P, CH);
  std::vector<ObjId> Objs = MR.FPG->reachableObjs();
  uint64_t SumNFA = 0;
  size_t Step = std::max<size_t>(1, Objs.size() / 500);
  size_t Sampled = 0;
  for (size_t I = 0; I < Objs.size(); I += Step) {
    SumNFA += MR.FPG->nfaSize(Objs[I]);
    ++Sampled;
  }
  double EstimatedUnshared =
      static_cast<double>(SumNFA) / Sampled * Objs.size();
  std::printf("  shared DFA states: %llu\n",
              (unsigned long long)MR.Modeling.DFAStates);
  std::printf("  unshared estimate (sum of NFA sizes): %.0f  -> sharing "
              "factor %.0fx\n",
              EstimatedUnshared,
              EstimatedUnshared / std::max<uint64_t>(
                                      1, MR.Modeling.DFAStates));
  std::printf("\n");
}

static void preAnalysisPrecisionAblation() {
  std::printf("-- (e) pre-analysis precision (extension; the paper fixes "
              "ci) --\n");
  auto P = workload::buildBenchmarkProgram("checkstyle", 0.2);
  ir::ClassHierarchy CH(*P);
  struct Config {
    const char *Label;
    pta::ContextKind Kind;
    unsigned K;
  } Configs[] = {
      {"ci (paper)", pta::ContextKind::Insensitive, 0},
      {"2type", pta::ContextKind::Type, 2},
      {"2obj", pta::ContextKind::Object, 2},
  };
  for (const Config &C : Configs) {
    MahjongOptions Opts;
    Opts.PreKind = C.Kind;
    Opts.PreK = C.K;
    MahjongResult MR = buildMahjongHeap(*P, CH, Opts);
    std::printf("  pre=%-11s pre-time=%6.2fs objects=%u\n", C.Label,
                MR.PreSeconds, MR.numMahjongObjects());
  }
  std::printf("  expected: a sharper pre-analysis never yields more "
              "objects (fewer\n  spurious condition-2 violations), at "
              "higher pre-analysis cost\n\n");
}

int main() {
  std::printf("== Ablations of MAHJONG's design choices ==\n\n");
  condition2Ablation();
  representativeAblation();
  partitionAblation();
  sharedAutomataAblation();
  preAnalysisPrecisionAblation();
  return 0;
}
