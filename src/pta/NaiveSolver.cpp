//===-- pta/NaiveSolver.cpp - Reference FIFO worklist solver ----------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pta/NaiveSolver.h"

#include "support/Timer.h"

using namespace mahjong;
using namespace mahjong::ir;
using namespace mahjong::pta;

void NaiveSolver::ensureNodeStorage(uint32_t Idx) {
  if (Idx < Out.size())
    return;
  // Geometric growth: reserve doubled capacity once, then resize all four
  // parallel arrays to the exact node count (PTAResult invariants expect
  // Pts.size() == Nodes.size()).
  size_t NewSize = Idx + 1;
  if (NewSize > Out.capacity()) {
    size_t NewCap = std::max(NewSize, Out.capacity() * 2);
    Out.reserve(NewCap);
    R.Pts.reserve(NewCap);
    Pending.reserve(NewCap);
    Queued.reserve(NewCap);
  }
  Out.resize(NewSize);
  R.Pts.resize(NewSize);
  Pending.resize(NewSize);
  Queued.resize(NewSize, false);
}

void NaiveSolver::addEdge(PtrNodeId Src, PtrNodeId Dst, TypeId Filter) {
  if (Src == Dst && !Filter.isValid())
    return;
  uint64_t Key = (static_cast<uint64_t>(Src.idx()) << 32) | Dst.idx();
  if (!Filter.isValid()) {
    if (!EdgeDedup.insert(Key))
      return;
  } else {
    // Filtered edges (casts) are rare per node; scan for an exact
    // duplicate since distinct filters on the same (src, dst) are legal.
    for (const Edge &E : Out[Src.idx()])
      if (E.Target == Dst && E.Filter == Filter)
        return;
  }
  Out[Src.idx()].push_back({Dst, Filter});
  const PointsToSet &SrcPts = R.Pts[Src.idx()];
  if (SrcPts.empty())
    return;
  if (!Filter.isValid())
    enqueue(Dst, SrcPts); // zero-copy: unionWith merge-joins in place
  else
    enqueue(Dst, filtered(SrcPts, Filter));
}

PointsToSet NaiveSolver::filtered(const PointsToSet &Set,
                                  TypeId Filter) const {
  // Deliberately per-element: by never touching the backend's filter
  // structures this engine independently validates them — a bug in the
  // range or bitmap construction shows up as a digest mismatch against
  // this semantic ground truth.
  PointsToSet Result;
  for (uint32_t Raw : Set)
    if (CH.isSubtype(R.typeOfCSObj(Raw), Filter))
      Result.insert(Raw);
  return Result;
}

void NaiveSolver::enqueue(PtrNodeId N, const PointsToSet &Delta) {
  if (Delta.empty())
    return;
  Pending[N.idx()].unionWith(Delta);
  if (!Queued[N.idx()]) {
    Queued[N.idx()] = true;
    Worklist.push_back(N);
  }
}

void NaiveSolver::seedDelta(PtrNodeId N, PointsToSet &&Delta) {
  enqueue(N, Delta);
}

void NaiveSolver::propagate(PtrNodeId N, const PointsToSet &Delta) {
  PointsToSet Diff = R.Pts[N.idx()].differenceFrom(Delta);
  if (Diff.empty())
    return;
  R.Pts[N.idx()].unionWith(Diff);
  uint64_t Key = R.Nodes.get(N);
  // Iterate by index: edge processing never appends to Out[N] (new edges
  // only appear in onVarGrowth below, which runs after this loop and
  // seeds them with the already-updated points-to set).
  size_t NumEdges = Out[N.idx()].size();
  for (size_t I = 0; I < NumEdges; ++I) {
    const Edge E = Out[N.idx()][I];
    if (!E.Filter.isValid())
      enqueue(E.Target, Diff);
    else
      enqueue(E.Target, filtered(Diff, E.Filter));
  }
  if (PTAResult::kindOf(Key) == PTAResult::KindVar) {
    auto [C, V] = R.CSM.varOf(PTAResult::csVarOf(Key));
    onVarGrowth(C, V, Diff);
  }
}

bool NaiveSolver::run() {
  Timer Clock;
  addReachable(R.Ctxs.empty(), P.entryMethod());

  uint64_t Pops = 0;
  while (!Worklist.empty()) {
    if ((++Pops & 0x1FFF) == 0 && TimeBudget > 0 &&
        Clock.seconds() > TimeBudget) {
      R.Stats.TimedOut = true;
      break;
    }
    PtrNodeId N = Worklist.front();
    Worklist.pop_front();
    Queued[N.idx()] = false;
    PointsToSet Delta = std::move(Pending[N.idx()]);
    Pending[N.idx()].clear();
    propagate(N, Delta);
  }

  for (uint32_t I = 0; I < R.Nodes.size(); ++I)
    R.Stats.WorkingSetBytes +=
        R.Pts[I].memoryBytes() + Pending[I].memoryBytes();

  R.Stats.Seconds = Clock.seconds();
  R.Stats.WorklistPops = Pops;
  finalizeStats();
  return !R.Stats.TimedOut;
}
