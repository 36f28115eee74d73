//===-- pta/PointerAnalysis.cpp - Analysis facade and results ---------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pta/PointerAnalysis.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "pta/NaiveSolver.h"
#include "pta/SetBackend.h"
#include "pta/Solver.h"

using namespace mahjong;
using namespace mahjong::ir;
using namespace mahjong::pta;

const PointsToSet *PTAResult::varPts(ContextId C, VarId V) const {
  CSVarId CSV = CSM.lookupCSVar(C, V);
  if (!CSV.isValid())
    return nullptr;
  PtrNodeId N = Nodes.lookup(varKey(CSV));
  if (!N.isValid() || N.idx() >= Pts.size())
    return nullptr;
  return &Pts[N.idx()];
}

PointsToSet PTAResult::ciVarPts(VarId V) const {
  PointsToSet Result;
  MethodId M = P.var(V).Method;
  for (ContextId C : MethodCtxs[M.idx()]) {
    const PointsToSet *Set = varPts(C, V);
    if (!Set)
      continue;
    for (uint32_t Raw : *Set)
      Result.insert(baseObjOf(Raw).idx());
  }
  return Result;
}

const PointsToSet *PTAResult::fieldPts(CSObjId O, FieldId F) const {
  PtrNodeId N = Nodes.lookup(fieldKey(O, F));
  if (!N.isValid() || N.idx() >= Pts.size())
    return nullptr;
  return &Pts[N.idx()];
}

void PTAResult::forEachFieldPts(
    const std::function<void(CSObjId, FieldId, const PointsToSet &)> &Fn)
    const {
  for (uint32_t I = 0; I < Nodes.size(); ++I) {
    uint64_t Key = Nodes.get(PtrNodeId(I));
    if (kindOf(Key) != KindField || Pts[I].empty())
      continue;
    auto [O, F] = csObjFieldOf(Key);
    Fn(O, F, Pts[I]);
  }
}

const char *mahjong::pta::solverEngineName(SolverEngine Engine) {
  switch (Engine) {
  case SolverEngine::Wave:
    return "wave";
  case SolverEngine::Naive:
    return "naive";
  case SolverEngine::Auto:
    break;
  }
  return "auto";
}

namespace {

// Calibrated against the checked-in full-scale engine races
// (BENCH_solver.json). Measured work = numVars + 4*numObjs per profile:
// antlr 80k, luindex 48k, lusearch 57k, fop 107k — all profiles where
// the FIFO worklist beats wave outright (fop by 1.7x); then a wide gap
// to checkstyle 574k, chart 623k and up, where wave is at worst within
// a few percent of naive and wins big where collapsing bites (eclipse
// 1.57M work, 1.68x; jpc 1.23M, 1.76x). The naive cutoff sits in the
// gap, above fop.
constexpr uint64_t NaiveWorkCutoff = 250'000;

} // namespace

SolverEngine mahjong::pta::chooseSolverEngine(uint64_t NumVars,
                                              uint64_t NumObjs) {
  // Work proxy: variables seed the constraint graph one node each;
  // allocation sites weigh more, since objects multiply both field nodes
  // and average set sizes.
  uint64_t Work = NumVars + 4 * NumObjs;
  return Work < NaiveWorkCutoff ? SolverEngine::Naive : SolverEngine::Wave;
}

SolverEngine mahjong::pta::chooseSolverEngine(const Program &P) {
  return chooseSolverEngine(P.numVars(), P.numObjs());
}

std::unique_ptr<PTAResult>
mahjong::pta::runPointerAnalysis(const Program &P, const ClassHierarchy &CH,
                                 const AnalysisOptions &Opts) {
  auto R = std::make_unique<PTAResult>(P, CH);
  static const AllocSiteAbstraction DefaultHeap;
  const HeapAbstraction &Heap = Opts.Heap ? *Opts.Heap : DefaultHeap;
  auto Selector = makeContextSelector(Opts.Kind, Opts.K, R->Ctxs, P);
  R->AnalysisName = analysisName(Opts.Kind, Opts.K);
  R->HeapName = Heap.name();
  SolverEngine Engine = Opts.Engine == SolverEngine::Auto
                            ? chooseSolverEngine(P)
                            : Opts.Engine;
  R->EngineName = solverEngineName(Engine);
  // The set-representation backend lives outside the engine: prepare()
  // must run before the engine constructor interns its first cs-object
  // (the hierarchy backend renumbers them), and the same strategy object
  // serves whichever engine runs.
  std::unique_ptr<SetRepOps> Ops = makeSetRepOps(Opts.Rep, P, CH);
  R->SetRepName = setRepName(Opts.Rep);
  Ops->prepare(*R);
  if (Engine == SolverEngine::Naive) {
    obs::ScopedSpan Span("solve/naive");
    NaiveSolver S(P, CH, Heap, *Selector, *Ops, *R, Opts.TimeBudgetSeconds);
    S.run();
  } else {
    obs::ScopedSpan Span("solve/wave");
    Solver S(P, CH, Heap, *Selector, *Ops, *R, Opts.TimeBudgetSeconds);
    S.run();
  }
  return R;
}

void mahjong::pta::exportStats(const PTAStats &S, obs::MetricsRegistry &Reg,
                               const std::string &Prefix) {
  Reg.gauge(Prefix + "seconds").set(S.Seconds);
  Reg.counter(Prefix + "timed_out").set(S.TimedOut ? 1 : 0);
  Reg.counter(Prefix + "num_contexts").set(S.NumContexts);
  Reg.counter(Prefix + "num_cs_vars").set(S.NumCSVars);
  Reg.counter(Prefix + "num_cs_objs").set(S.NumCSObjs);
  Reg.counter(Prefix + "num_cs_methods").set(S.NumCSMethods);
  Reg.counter(Prefix + "num_reachable_methods").set(S.NumReachableMethods);
  Reg.counter(Prefix + "var_pts_entries").set(S.VarPtsEntries);
  Reg.counter(Prefix + "worklist_pops").set(S.WorklistPops);
  Reg.counter(Prefix + "sccs_collapsed").set(S.SCCsCollapsed);
  Reg.counter(Prefix + "nodes_collapsed").set(S.NodesCollapsed);
  Reg.counter(Prefix + "filter_bitmap_hits").set(S.FilterBitmapHits);
  Reg.counter(Prefix + "set_bytes").set(S.SetBytes);
  Reg.counter(Prefix + "working_set_bytes").set(S.WorkingSetBytes);
}
