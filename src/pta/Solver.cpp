//===-- pta/Solver.cpp - Wave-propagation points-to solver ------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pta/Solver.h"

#include "obs/Trace.h"
#include "support/Timer.h"

#include <algorithm>

using namespace mahjong;
using namespace mahjong::ir;
using namespace mahjong::pta;

void Solver::ensureNodeStorage(uint32_t Idx) {
  if (Idx < Out.size())
    return;
  // Geometric growth: reserve doubled capacity once, then resize the
  // parallel arrays to the exact node count (PTAResult invariants expect
  // Pts.size() == Nodes.size()).
  size_t NewSize = Idx + 1;
  if (NewSize > Out.capacity()) {
    size_t NewCap = std::max(NewSize, Out.capacity() * 2);
    Out.reserve(NewCap);
    R.Pts.reserve(NewCap);
    Pending.reserve(NewCap);
    Queued.reserve(NewCap);
    Order.reserve(NewCap);
    SelfVar.reserve(NewCap);
    VarMembers.reserve(NewCap);
    Reps.reserve(static_cast<uint32_t>(NewCap));
  }
  size_t OldSize = Out.size();
  Out.resize(NewSize);
  R.Pts.resize(NewSize);
  Pending.resize(NewSize);
  Queued.resize(NewSize, 0);
  Order.resize(NewSize);
  SelfVar.resize(NewSize);
  VarMembers.resize(NewSize);
  Reps.grow(static_cast<uint32_t>(NewSize));
  for (size_t I = OldSize; I < NewSize; ++I) {
    Order[I] = NextFreshOrder++;
    // Field/static nodes carry no growth handlers, and neither do vars
    // without loads/stores/calls (onVarGrowth is a no-op for them, so
    // collapsed classes need not iterate them on every delta).
    uint64_t Key = R.Nodes.get(PtrNodeId(static_cast<uint32_t>(I)));
    if (PTAResult::kindOf(Key) == PTAResult::KindVar) {
      auto [C, V] = R.CSM.varOf(PTAResult::csVarOf(Key));
      const VarUsage &U = Usage[V.idx()];
      if (!U.Loads.empty() || !U.Stores.empty() || !U.Calls.empty())
        SelfVar[I] = {C, V};
    }
  }
}

PointsToSet Solver::filtered(const PointsToSet &Set, TypeId Filter) {
  PointsToSet Result = Set;
  Ops.filter(Result, Filter);
  ++R.Stats.FilterBitmapHits;
  return Result;
}

void Solver::enqueue(uint32_t N, const PointsToSet &Delta) {
  if (Delta.empty())
    return;
  Pending[N].unionWith(Delta);
  // A node already marked dirty batches: either its turn in the current
  // wave is still ahead (it will see the enlarged Pending), or it already
  // sits in NextWave. Only a clean node needs a new wave entry.
  if (!Queued[N]) {
    Queued[N] = 1;
    NextWave.push_back(N);
  }
}

void Solver::seedDelta(PtrNodeId N, PointsToSet &&Delta) {
  enqueue(rep(N.idx()), Delta);
}

void Solver::addEdge(PtrNodeId Src, PtrNodeId Dst, TypeId Filter) {
  uint32_t S = rep(Src.idx()), D = rep(Dst.idx());
  // Same-class edges can never add anything: unfiltered self-loops are
  // identities, and a filtered self-loop only re-derives a subset of the
  // class's own set.
  if (S == D)
    return;
  if (!Filter.isValid()) {
    uint64_t Key = (static_cast<uint64_t>(S) << 32) | D;
    if (!EdgeDedup.insert(Key))
      return;
    ++UnfilteredEdges;
  } else {
    // Filtered edges (casts) are rare per node; scan for an exact
    // duplicate since distinct filters on the same (src, dst) are legal.
    for (const Edge &E : Out[S])
      if (rep(E.Target.idx()) == D && E.Filter == Filter)
        return;
  }
  Out[S].push_back({PtrNodeId(D), Filter});
  const PointsToSet &SrcPts = R.Pts[S];
  if (SrcPts.empty())
    return;
  if (!Filter.isValid())
    enqueue(D, SrcPts); // zero-copy: unionWith merge-joins in place
  else
    enqueue(D, filtered(SrcPts, Filter));
}

void Solver::propagate(uint32_t N, const PointsToSet &Delta) {
  PointsToSet Diff = R.Pts[N].differenceFrom(Delta);
  if (Diff.empty())
    return;
  R.Pts[N].unionWith(Diff);
  // Snapshot the edge count: onVarGrowth below may append to Out[N], and
  // those new edges are seeded from the already-updated set. Index per
  // iteration — node creation inside the loop cannot happen, but staying
  // index-based keeps the loop reallocation-proof.
  size_t NumEdges = Out[N].size();
  for (size_t I = 0; I < NumEdges; ++I) {
    const Edge E = Out[N][I];
    uint32_t T = rep(E.Target.idx());
    if (T == N)
      continue; // target collapsed into this class since the edge was added
    if (!E.Filter.isValid())
      enqueue(T, Diff);
    else
      enqueue(T, filtered(Diff, E.Filter));
  }
  // Growth handlers for every variable merged into this class (the
  // common singleton case reads the flat SelfVar entry). New nodes
  // created here are their own classes, so VarMembers[N] cannot grow.
  if (VarMembers[N].empty()) {
    VarRef Self = SelfVar[N];
    if (Self.V.isValid())
      onVarGrowth(Self.C, Self.V, Diff);
  } else {
    size_t NumVars = VarMembers[N].size();
    for (size_t I = 0; I < NumVars; ++I) {
      VarRef M = VarMembers[N][I];
      onVarGrowth(M.C, M.V, Diff);
    }
  }
}

bool Solver::shouldRecondition() const {
  if (!ConditionedOnce)
    return UnfilteredEdges > 0;
  uint64_t Growth = UnfilteredEdges - EdgesAtLastPass;
  if (Growth < 512)
    return false; // a quiescent graph has no new cycles to find
  // Re-pass once the copy graph grew a quarter since the last pass, or —
  // whatever the relative growth — once enough waves went by. The relative
  // bound keeps the O(V+E) Tarjan sweeps logarithmic in edge insertions;
  // the wave bound catches cycles that wire up through receiver-driven
  // call plumbing (listener registration, fluent returns) long after the
  // bulk of the graph exists: a program-wide SCC is only a few thousand
  // edges, but circulating it once per wave costs a full flood of the
  // component each time. The wave interval backs off (recondition())
  // whenever a wave-triggered pass finds nothing, so a long quiescent
  // endgame is not taxed with fruitless Tarjan sweeps.
  return Growth * 4 >= EdgesAtLastPass ||
         WavesSinceRecondition >= WaveTriggerInterval;
}

void Solver::collapseScc(const std::vector<uint32_t> &Members) {
  // Union of everything the members know or have pending. Collapsing
  // resets the class to "empty with everything pending": the single
  // re-propagation replays the union through the merged edge list and the
  // merged var-growth handlers, which is what keeps members that had not
  // yet seen each other's elements sound.
  PointsToSet All;
  for (uint32_t M : Members) {
    All.unionWith(R.Pts[M]);
    All.unionWith(Pending[M]);
    R.Pts[M].clear();
    Pending[M].clear();
    Queued[M] = 0;
  }
  uint32_t W = Members.front();
  for (size_t I = 1; I < Members.size(); ++I)
    W = Reps.unite(W, Members[I]);

  // Merge edge lists into the representative, rewriting targets to their
  // representatives, dropping edges that became internal to the class and
  // deduplicating what remains.
  std::vector<Edge> Merged;
  FlatMap64 Local;
  for (uint32_t M : Members) {
    for (const Edge &E : Out[M]) {
      uint32_t T = rep(E.Target.idx());
      if (T == W)
        continue;
      uint64_t Key = (static_cast<uint64_t>(T) << 32) |
                     (E.Filter.isValid() ? E.Filter.idx() + 1u : 0u);
      if (!Local.insert(Key))
        continue;
      if (!E.Filter.isValid())
        EdgeDedup.insert((static_cast<uint64_t>(W) << 32) | T);
      Merged.push_back({PtrNodeId(T), E.Filter});
    }
    if (M != W) {
      Out[M].clear();
      Out[M].shrink_to_fit();
    }
  }
  Out[W] = std::move(Merged);

  // Concatenate var members so the class's growth keeps driving every
  // merged variable's loads/stores/calls. A member that was itself a
  // collapsed representative contributes its list (which includes its own
  // SelfVar); a singleton contributes its flat SelfVar entry.
  std::vector<VarRef> Vars;
  for (uint32_t M : Members) {
    if (!VarMembers[M].empty()) {
      Vars.insert(Vars.end(), VarMembers[M].begin(), VarMembers[M].end());
      VarMembers[M].clear();
    } else if (SelfVar[M].V.isValid()) {
      Vars.push_back(SelfVar[M]);
    }
  }
  VarMembers[W] = std::move(Vars);

  Pending[W] = std::move(All);
  Queued[W] = !Pending[W].empty();

  ++R.Stats.SCCsCollapsed;
  R.Stats.NodesCollapsed += Members.size() - 1;
}

void Solver::recondition() {
  obs::ScopedSpan Span("recondition");
  const uint32_t N = static_cast<uint32_t>(Out.size());

  // Iterative Tarjan over the representative graph restricted to
  // unfiltered copy edges. SCCs are emitted in reverse topological order
  // of the condensation.
  std::vector<int32_t> Index(N, -1);
  std::vector<int32_t> Low(N, 0);
  std::vector<uint8_t> OnStack(N, 0);
  std::vector<uint32_t> Stack;
  std::vector<std::vector<uint32_t>> Sccs;
  struct Frame {
    uint32_t Node;
    uint32_t EdgeIdx;
  };
  std::vector<Frame> Frames;
  int32_t Counter = 0;

  for (uint32_t Root = 0; Root < N; ++Root) {
    if (!Reps.isRep(Root) || Index[Root] >= 0)
      continue;
    Index[Root] = Low[Root] = Counter++;
    Stack.push_back(Root);
    OnStack[Root] = 1;
    Frames.push_back({Root, 0});
    while (!Frames.empty()) {
      uint32_t Cur = Frames.back().Node;
      if (Frames.back().EdgeIdx < Out[Cur].size()) {
        const Edge &E = Out[Cur][Frames.back().EdgeIdx++];
        if (E.Filter.isValid())
          continue;
        uint32_t T = rep(E.Target.idx());
        if (T == Cur)
          continue;
        if (Index[T] < 0) {
          Index[T] = Low[T] = Counter++;
          Stack.push_back(T);
          OnStack[T] = 1;
          Frames.push_back({T, 0}); // invalidates Frames.back(); loop re-reads
        } else if (OnStack[T]) {
          Low[Cur] = std::min(Low[Cur], Index[T]);
        }
        continue;
      }
      Frames.pop_back();
      if (!Frames.empty())
        Low[Frames.back().Node] = std::min(Low[Frames.back().Node], Low[Cur]);
      if (Low[Cur] == Index[Cur]) {
        Sccs.emplace_back();
        while (true) {
          uint32_t M = Stack.back();
          Stack.pop_back();
          OnStack[M] = 0;
          Sccs.back().push_back(M);
          if (M == Cur)
            break;
        }
      }
    }
  }

  uint64_t CollapsedBefore = R.Stats.NodesCollapsed;
  for (const std::vector<uint32_t> &Scc : Sccs)
    if (Scc.size() > 1)
      collapseScc(Scc);
  // Adapt the wave-count trigger to what the pass actually found: a
  // fruitless pass doubles the interval, a productive one resets it.
  WaveTriggerInterval = R.Stats.NodesCollapsed == CollapsedBefore
                            ? std::min<uint32_t>(WaveTriggerInterval * 2, 64)
                            : 4;

  // Reverse the emission order into a forward topological priority:
  // sources get the smallest order so deltas sweep with the flow.
  const uint32_t NumSccs = static_cast<uint32_t>(Sccs.size());
  for (uint32_t I = 0; I < NumSccs; ++I)
    Order[rep(Sccs[I].front())] = NumSccs - I;
  NextFreshOrder = NumSccs + 1;

  // Rebuild the dirty set under the new representatives, dropping entries
  // that were collapsed away (run() sorts by the fresh Order).
  NextWave.clear();
  for (uint32_t I = 0; I < N; ++I)
    if (Queued[I] && Reps.isRep(I))
      NextWave.push_back(I);

  EdgesAtLastPass = UnfilteredEdges;
  WavesSinceRecondition = 0;
  ConditionedOnce = true;
}

void Solver::flattenResult() {
  for (uint32_t I = 0; I < R.Nodes.size(); ++I) {
    uint32_t Rep = rep(I);
    if (Rep != I)
      R.Pts[I] = R.Pts[Rep];
  }
}

void Solver::sortWave(std::vector<uint32_t> &Wave) const {
  std::sort(Wave.begin(), Wave.end(), [this](uint32_t A, uint32_t B) {
    return Order[A] != Order[B] ? Order[A] < Order[B] : A < B;
  });
}

bool Solver::run() {
  Timer Clock;
  addReachable(R.Ctxs.empty(), P.entryMethod());

  uint64_t Pops = 0;
  std::vector<uint32_t> Wave;
  while (!R.Stats.TimedOut) {
    // Conditioning runs at wave boundaries: the graph is quiescent and
    // the fresh topological order applies to the whole next sweep.
    if (shouldRecondition())
      recondition();
    if (NextWave.empty())
      break;
    ++WavesSinceRecondition;
    Wave.swap(NextWave);
    sortWave(Wave);
    obs::ScopedSpan WaveSpan("wave");
    WaveSpan.arg("nodes", Wave.size());
    Timer WaveClock;
    for (uint32_t N : Wave) {
      if (!Queued[N] || !Reps.isRep(N))
        continue; // stale: merged away, or re-listed by a conditioning pass
      Queued[N] = 0;
      if ((++Pops & 0x1FFF) == 0 && TimeBudget > 0 &&
          Clock.seconds() > TimeBudget) {
        R.Stats.TimedOut = true;
        break;
      }
      PointsToSet Delta = std::move(Pending[N]);
      Pending[N].clear();
      propagate(N, Delta);
    }
    R.WaveMicros.record(static_cast<uint64_t>(WaveClock.seconds() * 1e6));
    Wave.clear();
  }

  // Record the engine's true working set before flattening duplicates the
  // representative sets back onto class members.
  for (uint32_t I = 0; I < R.Nodes.size(); ++I)
    R.Stats.WorkingSetBytes +=
        R.Pts[I].memoryBytes() + Pending[I].memoryBytes();
  flattenResult();

  R.Stats.Seconds = Clock.seconds();
  R.Stats.WorklistPops = Pops;
  finalizeStats();
  return !R.Stats.TimedOut;
}
