//===-- pta/Solver.h - Wave-propagation points-to solver ------*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wave-propagation engine computing an Andersen-style, flow-
/// insensitive, (optionally) context-sensitive points-to solution with an
/// on-the-fly call graph. Three optimizations over the retained textbook
/// reference (NaiveSolver.h), all semantics-preserving:
///
///  - **Online cycle collapsing.** Copy-edge cycles are ubiquitous in
///    Andersen constraint graphs; every node of a cycle converges to the
///    same set, so propagating around it one delta at a time is wasted
///    work. The engine periodically runs Tarjan SCC over the unfiltered
///    copy edges of the collapsed graph and merges each multi-node SCC
///    into one representative (support::DisjointSets): one points-to set,
///    one pending delta, one outgoing edge list per class. Filtered
///    (cast) edges never participate — a filter must stay on the edge.
///
///  - **Topology-aware scheduling.** The worklist is processed in
///    *waves*: the dirty set is snapshotted, sorted by the (periodically
///    recomputed) topological order of the collapsed graph, and swept
///    once; nodes dirtied during the sweep form the next wave. Sorting
///    makes deltas flow with the graph inside a wave, and the wave
///    boundary preserves FIFO-style batching — a node is processed at
///    most once per wave no matter how many deltas reach it, where a
///    strict priority queue would reprocess a low-order node per delta.
///
///  - **Backend-provided cast filters.** SetRepOps (pta/SetBackend.h)
///    turns a cast edge into one set intersection, against the target's
///    [lo, hi) rank ranges plus a bitmap of the passing cs-objects above
///    the ranked block, built on first use, instead of a per-element
///    subtype test.
///
/// The representative contract: every access to Pts/Pending/Out/Queued
/// must go through the class representative (rep()); member nodes retain
/// their interned PtrNodeId, and run() flattens the final solution back
/// onto every member so PTAResult is indistinguishable from the
/// reference engine's (see tests/pta/SolverEquivalenceTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_PTA_SOLVER_H
#define MAHJONG_PTA_SOLVER_H

#include "pta/SolverCore.h"
#include "support/DisjointSets.h"

namespace mahjong::pta {

/// The default fixpoint engine (SolverEngine::Wave).
class Solver final : public SolverCore {
public:
  using SolverCore::SolverCore;

  bool run() override;

private:
  struct Edge {
    PtrNodeId Target; ///< re-resolved through rep() at firing time
    TypeId Filter;    ///< cast target; invalid = unfiltered
  };

  void ensureNodeStorage(uint32_t Idx) override;
  void addEdge(PtrNodeId Src, PtrNodeId Dst, TypeId Filter) override;
  void seedDelta(PtrNodeId N, PointsToSet &&Delta) override;

  /// Representative of \p Idx's collapsed class (path-compressing).
  uint32_t rep(uint32_t Idx) { return Reps.find(Idx); }

  /// Merges \p Delta into representative \p N's pending set and marks it
  /// dirty for the next wave (or later in the current one if still
  /// unprocessed there).
  void enqueue(uint32_t N, const PointsToSet &Delta);

  void propagate(uint32_t N, const PointsToSet &Delta);

  /// \p Set restricted to the cs-objects passing \p Filter, via the
  /// backend's filter structure (materialized on first use).
  PointsToSet filtered(const PointsToSet &Set, TypeId Filter);

  /// Sorts a snapshotted wave by topological priority (ties by node id,
  /// making the sweep order a total, schedule-independent function of the
  /// dirty set).
  void sortWave(std::vector<uint32_t> &Wave) const;

  /// True when enough new copy edges accumulated to justify a pass.
  bool shouldRecondition() const;

  /// One wave-conditioning pass: Tarjan SCC over unfiltered copy edges of
  /// the representative graph, collapse of every multi-node SCC, fresh
  /// topological order, worklist rebuild.
  void recondition();
  void collapseScc(const std::vector<uint32_t> &Members);

  /// Copies every representative's final set onto its members, making
  /// R.Pts identical to what the reference engine produces.
  void flattenResult();

  // --- Per-node state (indexed by PtrNodeId; authoritative only at
  // representatives once classes merge) ---
  std::vector<std::vector<Edge>> Out;
  FlatMap64 EdgeDedup; ///< packed (repSrc, repDst)
  std::vector<PointsToSet> Pending;
  std::vector<uint8_t> Queued;
  std::vector<uint32_t> Order; ///< topological priority (smaller = earlier)
  /// A var node's identity pre-decoded to (context, var): growth of the
  /// node's class must trigger load/store/call processing for every
  /// merged var, and decoding once at node birth keeps the hot growth
  /// loop free of NodeTable/CSManager lookups. An invalid V marks nodes
  /// with no growth handlers (field/static nodes, vars never used as a
  /// load/store/call base).
  struct VarRef {
    ContextId C;
    VarId V;
  };
  std::vector<VarRef> SelfVar;
  /// Concatenated member refs, populated only at collapsed-class
  /// representatives (including the rep's own SelfVar); empty everywhere
  /// else, so singleton nodes never pay a per-node vector allocation.
  std::vector<std::vector<VarRef>> VarMembers;
  DisjointSets Reps;

  /// Dirty nodes awaiting the next wave. run() swaps this out, sorts by
  /// Order, and sweeps; stale entries (collapsed or already-processed
  /// nodes) are dropped at visit time via Queued/rep checks.
  std::vector<uint32_t> NextWave;

  uint32_t NextFreshOrder = 0; ///< order for nodes born after the last pass
  uint64_t UnfilteredEdges = 0;
  uint64_t EdgesAtLastPass = 0;
  uint32_t WavesSinceRecondition = 0;
  uint32_t WaveTriggerInterval = 4; ///< adaptive: doubles on fruitless passes
  bool ConditionedOnce = false;
};

} // namespace mahjong::pta

#endif // MAHJONG_PTA_SOLVER_H
