//===-- core/DFAPartition.h - Global behavioral partition -----*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Partition refinement over the *whole* shared DFA: computes the
/// behavioral equivalence classes of every state at once. Two DFA states
/// are language-and-output equivalent (the relation Algorithm 4 decides
/// pairwise) iff they end up in the same block.
///
/// The refinement is Valmari and Lehtinen's worklist algorithm for DFAs
/// with partial transition functions (Hopcroft's "process the smaller
/// half", O(m log n) for m transitions over n states). It starts from the
/// partition by output set. An edge to a state's own default sink (q_error,
/// or the null state for states containing o_null) is dropped, so a
/// missing field and an explicit edge to the sink are equivalent; this is
/// exact because both sinks are singleton blocks from the start (only the
/// empty set outputs ∅, only {o_null} outputs {null type}).
///
/// The heap modeler uses the partition to group each type bucket by the
/// block of its objects' start states, reducing Algorithm 1's
/// object-vs-representative scan from O(objects x classes) to
/// O(objects); the Hopcroft-Karp checker still certifies each group.
/// This matters on heaps with many small equivalence classes (the
/// never-scalable programs), where the quadratic scan dominates.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_CORE_DFAPARTITION_H
#define MAHJONG_CORE_DFAPARTITION_H

#include "core/DFACache.h"

#include <vector>

namespace mahjong::core {

/// Behavioral partition of all states interned in a DFACache.
class DFAPartition {
public:
  /// Expands every interned state that is not yet materialized, then
  /// refines to a fixpoint; the cache must not grow afterwards.
  explicit DFAPartition(DFACache &Cache);

  /// Block id of \p S. Equal blocks <=> behaviorally equivalent states.
  uint32_t blockOf(DFAStateId S) const { return Block[S.idx()]; }

  uint32_t numBlocks() const { return NumBlocks; }

private:
  std::vector<uint32_t> Block;
  uint32_t NumBlocks = 0;
};

} // namespace mahjong::core

#endif // MAHJONG_CORE_DFAPARTITION_H
