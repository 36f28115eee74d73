//===-- core/Mahjong.cpp - Top-level MAHJONG driver --------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Mahjong.h"

#include "obs/Trace.h"
#include "support/Timer.h"

using namespace mahjong;
using namespace mahjong::core;
using namespace mahjong::ir;
using namespace mahjong::pta;

MahjongResult mahjong::core::buildMahjongHeap(const Program &P,
                                              const ClassHierarchy &CH,
                                              const MahjongOptions &Opts) {
  MahjongResult R;

  // Stage 1: the pre-analysis — by default the paper's fast, imprecise
  // context-insensitive Andersen with the allocation-site abstraction
  // (§3.1); optionally a more precise variant (see MahjongOptions).
  Timer Clock;
  std::unique_ptr<PTAResult> Pre;
  {
    obs::ScopedSpan Span("pre-analysis");
    AnalysisOptions PreOpts;
    PreOpts.Kind = Opts.PreKind;
    PreOpts.K = Opts.PreK;
    PreOpts.Engine = Opts.PreEngine;
    PreOpts.TimeBudgetSeconds = Opts.PreAnalysisBudgetSeconds;
    Pre = runPointerAnalysis(P, CH, PreOpts);
  }
  R.PreSeconds = Clock.seconds();
  R.PreEngineName = Pre->EngineName;

  // Stage 2: the field points-to graph, the pre-analysis' last reader.
  Clock.reset();
  {
    obs::ScopedSpan Span("fpg-build");
    R.FPG = std::make_unique<FieldPointsToGraph>(*Pre);
  }
  R.FPGSeconds = Clock.seconds();
  Pre.reset();

  // Stage 3: merge equivalent automata (Algorithm 1). The automata die
  // with the merge: nothing after it reads them.
  Clock.reset();
  {
    obs::ScopedSpan Span("automata-merge");
    DFACache Cache(*R.FPG);
    R.Modeling = modelHeap(*R.FPG, Cache, Opts.Modeler);
    R.MOM = R.Modeling.MOM;
  }
  R.MahjongSeconds = Clock.seconds();

  R.Heap = std::make_unique<MergedHeapAbstraction>(R.MOM, "mahjong");
  return R;
}

MahjongAnalysis mahjong::core::runMahjongAnalysis(const Program &P,
                                                  const ClassHierarchy &CH,
                                                  ContextKind Kind, unsigned K,
                                                  const MahjongOptions &Opts,
                                                  double MainBudgetSeconds) {
  MahjongAnalysis MA;
  MA.Heap = buildMahjongHeap(P, CH, Opts);
  AnalysisOptions Main;
  Main.Kind = Kind;
  Main.K = K;
  Main.Heap = MA.Heap.Heap.get();
  Main.TimeBudgetSeconds = MainBudgetSeconds;
  MA.Result = runPointerAnalysis(P, CH, Main);
  MA.Result->AnalysisName = "M-" + MA.Result->AnalysisName;
  return MA;
}
