//===-- core/Mahjong.h - Top-level MAHJONG driver -------------*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end MAHJONG pipeline of the paper's Figure 5: run the fast
/// context-insensitive Andersen pre-analysis, build the field points-to
/// graph, model the heap by merging equivalent automata, and hand back a
/// heap abstraction that any allocation-site-based points-to analysis can
/// drop in.
///
/// Typical use:
/// \code
///   MahjongResult MR = buildMahjongHeap(P, CH);
///   AnalysisOptions Opts{ContextKind::Object, 3, MR.Heap.get()};
///   auto M3Obj = runPointerAnalysis(P, CH, Opts);   // M-3obj
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_CORE_MAHJONG_H
#define MAHJONG_CORE_MAHJONG_H

#include "core/FieldPointsToGraph.h"
#include "core/HeapModeler.h"
#include "pta/PointerAnalysis.h"

#include <memory>
#include <string>

namespace mahjong::core {

/// Options for the whole pipeline.
struct MahjongOptions {
  HeapModelerOptions Modeler;
  /// Wall-clock budget for the pre-analysis (0 = unlimited).
  double PreAnalysisBudgetSeconds = 0;
  /// Context flavour of the pre-analysis. The paper fixes the fast
  /// context-insensitive Andersen analysis (the default); a more precise
  /// pre-analysis produces a sharper FPG, which can only *increase*
  /// merging (fewer spurious condition-2 violations) while keeping the
  /// result sound — at the price of pre-analysis time. Exposed for the
  /// extension experiment in the ablation bench.
  pta::ContextKind PreKind = pta::ContextKind::Insensitive;
  unsigned PreK = 0;
  /// Solver engine of the pre-analysis. Every engine computes the same
  /// fixpoint, so this changes only its speed, never the FPG or the MOM.
  pta::SolverEngine PreEngine = pta::SolverEngine::Wave;
};

/// Everything the pipeline produced, including the timing breakdown the
/// paper reports in Table 2's pre-analysis column.
struct MahjongResult {
  /// The heap abstraction for the subsequent points-to analysis.
  std::unique_ptr<pta::MergedHeapAbstraction> Heap;
  /// The raw merged object map (index = allocation site).
  std::vector<ObjId> MOM;
  /// The field points-to graph. The pre-analysis solution it was built
  /// from and the shared automata of the merge are freed once read, so
  /// they do not stay alive through the main analysis.
  std::unique_ptr<FieldPointsToGraph> FPG;
  /// The solver engine the pre-analysis ran (solverEngineName).
  std::string PreEngineName;
  HeapModelerResult Modeling;

  double PreSeconds = 0;     ///< context-insensitive points-to ("ci")
  double FPGSeconds = 0;     ///< FPG construction
  double MahjongSeconds = 0; ///< heap modeling (automata + merging)

  /// Objects under the allocation-site abstraction (Figure 8 baseline).
  uint32_t numAllocSiteObjects() const {
    return Modeling.NumReachableObjs;
  }
  /// Objects under MAHJONG (Figure 8).
  uint32_t numMahjongObjects() const { return Modeling.NumClasses; }
};

/// Runs the full pipeline on \p P.
MahjongResult buildMahjongHeap(const ir::Program &P,
                               const ir::ClassHierarchy &CH,
                               const MahjongOptions &Opts = {});

/// Convenience: runs analysis \p Kind/\p K with the MAHJONG abstraction
/// (building it first) and returns both pieces.
struct MahjongAnalysis {
  MahjongResult Heap;
  std::unique_ptr<pta::PTAResult> Result;
};
MahjongAnalysis runMahjongAnalysis(const ir::Program &P,
                                   const ir::ClassHierarchy &CH,
                                   pta::ContextKind Kind, unsigned K,
                                   const MahjongOptions &Opts = {},
                                   double MainBudgetSeconds = 0);

} // namespace mahjong::core

#endif // MAHJONG_CORE_MAHJONG_H
