//===-- core/DFAPartition.h - Global behavioral partition -----*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Partition refinement over the *whole* shared DFA: decides both
/// conditions of Definition 2.1 for every state of a closed DFACache at
/// once. Two DFA states are language-and-output equivalent (condition 1,
/// the relation Algorithm 4 decides pairwise) iff they end up in the same
/// block; singleType answers SINGLETYPE-CHECK (condition 2).
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
/// Condition 2 comes from one backward pass over every explicit
/// transition, seeded by the states whose output is not a singleton: a
/// state is single-typed iff it reaches none of them.
///
/// The heap modeler groups objects by the block of their start states.
/// A start state {o} outputs {type(o)} and blocks refine the output
/// partition, so a block never mixes types; Algorithm 1's
/// object-vs-representative scan and its per-type buckets reduce to one
/// lookup per object.
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
  /// Partitions every state of \p Cache, which must be closed
  /// (DFACache::expandAll) and must not grow afterwards.
  explicit DFAPartition(const DFACache &Cache);

  /// Block id of \p S. Equal blocks <=> behaviorally equivalent states.
  uint32_t blockOf(DFAStateId S) const { return Block[S.idx()]; }

  /// SINGLETYPE-CHECK: true iff every state reachable from \p S along
  /// explicit transitions (S included) has a singleton output.
  bool singleType(DFAStateId S) const { return Single[S.idx()]; }

  uint32_t numBlocks() const { return NumBlocks; }

private:
  std::vector<bool> Single;
  std::vector<uint32_t> Block;
  uint32_t NumBlocks = 0;
};

} // namespace mahjong::core

#endif // MAHJONG_CORE_DFAPARTITION_H
