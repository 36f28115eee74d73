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

#include <algorithm>
#include <bit>

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

namespace {

/// Scratch of the context-insensitive projection: the union of a group of
/// context-sensitive sets (one variable's contexts, or one base object's
/// cs-objects for one field), mapped onto base objects.
///
/// The group's sets are OR'ed chunk by chunk into a dense cs-object
/// bitmap, so a cs-object that several contexts share is decoded once,
/// not once per context. Each accumulated bit is then mapped to its base
/// object (PTAResult::baseObjOf, an array read) and stamped into a dense
/// object bitmap, which is read out in ascending order. Only the words a
/// group touched are visited and cleared, so a group costs its own size,
/// never the size of the bitmaps.
class CIProjector {
public:
  explicit CIProjector(const PTAResult &R)
      : R(R), CSWords(R.CSM.numCSObjs() / 64 + 1),
        ObjWords(R.P.numObjs() / 64 + 1) {}

  /// ORs \p S into the group's accumulator, word by word.
  void add(const PointsToSet &S) {
    for (const PointsToSet::Chunk &C : S.chunks()) {
      if (!CSWords[C.Index])
        CSTouched.push_back(C.Index);
      CSWords[C.Index] |= C.Word;
    }
  }

  /// Projects the sets added since the last call and clears the scratch.
  const PTAResult::ObjList &project() {
    for (uint32_t I : CSTouched) {
      stampWord(I, CSWords[I]);
      CSWords[I] = 0;
    }
    CSTouched.clear();
    Out.clear();
    std::sort(ObjTouched.begin(), ObjTouched.end());
    for (uint32_t I : ObjTouched) {
      for (uint64_t W = ObjWords[I]; W; W &= W - 1)
        Out.push_back((I << 6) + static_cast<uint32_t>(std::countr_zero(W)));
      ObjWords[I] = 0;
    }
    ObjTouched.clear();
    return Out;
  }

private:
  /// Stamps the base objects of the cs-objects in word \p Index.
  void stampWord(uint32_t Index, uint64_t Word) {
    for (; Word; Word &= Word - 1) {
      uint32_t O = R.baseObjOf((Index << 6) +
                               static_cast<uint32_t>(std::countr_zero(Word)))
                       .idx();
      uint64_t &W = ObjWords[O >> 6];
      if (!W)
        ObjTouched.push_back(O >> 6);
      W |= 1ull << (O & 63);
    }
  }

  const PTAResult &R;
  std::vector<uint64_t> CSWords;    ///< dense accumulator, by cs-object
  std::vector<uint32_t> CSTouched;  ///< nonzero CSWords indices
  std::vector<uint64_t> ObjWords;   ///< dense stamp bitmap, by object
  std::vector<uint32_t> ObjTouched; ///< nonzero ObjWords indices
  PTAResult::ObjList Out;
};

/// Stable counting sort of the node ids \p Items by \p Key(id), which
/// must be below \p NumKeys. \returns the bucket starts: the ids of key
/// K end up in [Start[K], Start[K + 1]).
template <typename KeyFn>
std::vector<uint32_t> countingSort(std::vector<uint32_t> &Items,
                                   uint32_t NumKeys, KeyFn Key) {
  std::vector<uint32_t> Start(NumKeys + 1, 0);
  for (uint32_t I : Items)
    ++Start[Key(I) + 1];
  for (uint32_t K = 0; K < NumKeys; ++K)
    Start[K + 1] += Start[K];
  std::vector<uint32_t> Sorted(Items.size());
  std::vector<uint32_t> Next(Start.begin(), Start.end() - 1);
  for (uint32_t I : Items)
    Sorted[Next[Key(I)]++] = I;
  Items.swap(Sorted);
  return Start;
}

/// Ids of the nodes of kind \p Kind whose set is nonempty, ascending.
std::vector<uint32_t> nonemptyNodes(const PTAResult &R, uint64_t Kind) {
  std::vector<uint32_t> Items;
  uint32_t N = std::min<size_t>(R.Nodes.size(), R.Pts.size());
  for (uint32_t I = 0; I < N; ++I)
    if (PTAResult::kindOf(R.Nodes.get(PtrNodeId(I))) == Kind &&
        !R.Pts[I].empty())
      Items.push_back(I);
  return Items;
}

} // namespace

PointsToSet PTAResult::ciVarPts(VarId V) const {
  CIProjector Proj(*this);
  for (ContextId C : MethodCtxs[P.var(V).Method.idx()])
    if (const PointsToSet *Set = varPts(C, V))
      Proj.add(*Set);
  PointsToSet Result;
  for (uint32_t O : Proj.project())
    Result.insert(O);
  return Result;
}

void PTAResult::forEachCIVarPts(
    const std::function<void(VarId, const ObjList &)> &Fn) const {
  std::vector<uint32_t> Items = nonemptyNodes(*this, KindVar);
  std::vector<uint32_t> Start =
      countingSort(Items, P.numVars(), [this](uint32_t I) {
        return CSM.varOf(csVarOf(Nodes.get(PtrNodeId(I)))).second.idx();
      });
  CIProjector Proj(*this);
  for (uint32_t V = 0; V < P.numVars(); ++V) {
    for (uint32_t K = Start[V]; K < Start[V + 1]; ++K)
      Proj.add(Pts[Items[K]]);
    Fn(VarId(V), Proj.project());
  }
}

void PTAResult::forEachCIFieldPts(
    const std::function<void(ObjId, FieldId, const ObjList &)> &Fn) const {
  std::vector<uint32_t> Items = nonemptyNodes(*this, KindField);
  auto FieldOf = [this](uint32_t I) {
    return csObjFieldOf(Nodes.get(PtrNodeId(I))).second;
  };
  auto BaseOf = [this](uint32_t I) {
    return baseObjOf(csObjFieldOf(Nodes.get(PtrNodeId(I))).first.idx());
  };
  // Two stable passes, field then base object: each base object's bucket
  // lists its field nodes grouped by field, in ascending field order.
  countingSort(Items, P.numFields(),
               [&](uint32_t I) { return FieldOf(I).idx(); });
  std::vector<uint32_t> Start = countingSort(
      Items, P.numObjs(), [&](uint32_t I) { return BaseOf(I).idx(); });
  CIProjector Proj(*this);
  for (uint32_t O = 0; O < P.numObjs(); ++O) {
    for (uint32_t K = Start[O]; K < Start[O + 1];) {
      FieldId F = FieldOf(Items[K]);
      for (; K < Start[O + 1] && FieldOf(Items[K]) == F; ++K)
        Proj.add(Pts[Items[K]]);
      Fn(ObjId(O), F, Proj.project());
    }
  }
}

void PTAResult::forEachCIStaticPts(
    const std::function<void(FieldId, const ObjList &)> &Fn) const {
  std::vector<uint32_t> Items = nonemptyNodes(*this, KindStatic);
  std::vector<uint32_t> Start =
      countingSort(Items, P.numFields(), [this](uint32_t I) {
        return staticFieldOf(Nodes.get(PtrNodeId(I))).idx();
      });
  CIProjector Proj(*this);
  for (uint32_t F = 0; F < P.numFields(); ++F) {
    if (Start[F] == Start[F + 1])
      continue;
    for (uint32_t K = Start[F]; K < Start[F + 1]; ++K)
      Proj.add(Pts[Items[K]]);
    Fn(FieldId(F), Proj.project());
  }
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
// (BENCH_solver.json, BENCH_auto_solver.json). Measured work = numVars +
// 4*numObjs per profile: antlr 80k, luindex 48k, lusearch 57k, fop 107k
// — profiles that solve in 0.03-0.17 s, where neither engine wins by
// more than 0.05 s (naive 1.3x on lusearch; wave 1.2-1.5x on antlr and
// fop in one race, 0.9-1.04x in the other); then a wide gap to
// checkstyle 574k, chart 623k and up, where wave is 1.15-1.27x faster
// in the engine race but for bloat (0.98x), and eclipse (1.57M work)
// gains most, 1.27-1.57x. The naive cutoff sits in the gap, above fop.
// Always-wave was also measured end to end (bench/e2e, 3 seeds,
// medians) and lost to this chooser on every workload.
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
  // The cs-object numbering lives outside the engine: it must be
  // constructed before the engine constructor interns its first cs-object
  // (it pre-interns the ranked block), and the same object serves
  // whichever engine runs.
  SetRepOps Ops(*R);
  if (Engine == SolverEngine::Naive) {
    obs::ScopedSpan Span("solve/naive");
    NaiveSolver S(P, CH, Heap, *Selector, Ops, *R, Opts.TimeBudgetSeconds);
    S.run();
  } else {
    obs::ScopedSpan Span("solve/wave");
    Solver S(P, CH, Heap, *Selector, Ops, *R, Opts.TimeBudgetSeconds);
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
