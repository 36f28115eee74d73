//===-- pta/NaiveSolver.h - Reference FIFO worklist solver ----*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The textbook FIFO worklist solver, retained as the differential
/// reference for the wave-propagation engine (Solver.h) and as the perf
/// baseline of bench_preanalysis. It shares all statement semantics with
/// the wave engine through SolverCore; only the propagation core — plain
/// coalescing FIFO scheduling, per-element subtype checks on cast edges,
/// no cycle collapsing — is its own.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_PTA_NAIVESOLVER_H
#define MAHJONG_PTA_NAIVESOLVER_H

#include "pta/SolverCore.h"

#include <deque>

namespace mahjong::pta {

/// The reference fixpoint engine (SolverEngine::Naive).
class NaiveSolver final : public SolverCore {
public:
  using SolverCore::SolverCore;

  bool run() override;

private:
  struct Edge {
    PtrNodeId Target;
    TypeId Filter; ///< cast target; invalid = unfiltered
  };

  void ensureNodeStorage(uint32_t Idx) override;
  void addEdge(PtrNodeId Src, PtrNodeId Dst, TypeId Filter) override;
  void seedDelta(PtrNodeId N, PointsToSet &&Delta) override;

  /// Merges \p Delta into \p N's pending set and queues \p N.
  void enqueue(PtrNodeId N, const PointsToSet &Delta);

  /// Merges \p Delta into \p N and forwards the growth along edges; var
  /// nodes additionally trigger load/store/call processing.
  void propagate(PtrNodeId N, const PointsToSet &Delta);

  /// The elements of \p Set whose type is a subtype of \p Filter (which
  /// must be valid; unfiltered edges never materialize a filtered copy).
  PointsToSet filtered(const PointsToSet &Set, TypeId Filter) const;

  std::vector<std::vector<Edge>> Out; ///< indexed by PtrNodeId
  FlatMap64 EdgeDedup;                ///< packed (src, dst), unfiltered
  // Coalescing worklist: one pending delta per node, so bursts of tiny
  // deltas through hub nodes merge before they are propagated.
  std::vector<PointsToSet> Pending; ///< indexed by PtrNodeId
  std::vector<bool> Queued;         ///< indexed by PtrNodeId
  std::deque<PtrNodeId> Worklist;
};

} // namespace mahjong::pta

#endif // MAHJONG_PTA_NAIVESOLVER_H
