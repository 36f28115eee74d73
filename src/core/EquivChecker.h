//===-- core/EquivChecker.h - Hopcroft-Karp equivalence -------*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The automata equivalence checker (the paper's Algorithm 4): the classic
/// Hopcroft-Karp union-find procedure, modified for 6-tuple sequential
/// automata by comparing the full output map instead of accept flags.
/// Runs in near-linear time O(|Σ| · |Q_larger|) per query.
///
/// Works on the shared DFACache, expanding states on demand. The heap
/// modeler decides the same relation for all states at once through
/// DFAPartition; this checker is the paper's pairwise reference.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_CORE_EQUIVCHECKER_H
#define MAHJONG_CORE_EQUIVCHECKER_H

#include "core/DFACache.h"

#include <cstdint>
#include <unordered_map>

namespace mahjong::core {

/// Decides language-and-output equivalence of two DFA states.
class EquivChecker {
public:
  /// \p Cache must outlive the checker; unexpanded states are expanded
  /// on demand.
  explicit EquivChecker(DFACache &Cache) : Cache(Cache) {}

  /// \returns true iff the automata rooted at \p A and \p B have
  /// identical behavior β: Σ* → P(Γ) (Condition 1 of Definition 2.1
  /// re-expressed on automata).
  bool equivalent(DFAStateId A, DFAStateId B);

  /// Total state pairs examined across all queries (statistics).
  uint64_t numPairsExamined() const { return PairsExamined; }

private:
  /// Lazy union-find over DFA state ids, local to one query.
  class LazyUnionFind {
  public:
    uint32_t find(uint32_t X);
    void unite(uint32_t A, uint32_t B);

  private:
    std::unordered_map<uint32_t, uint32_t> Parent;
  };

  DFACache &Cache;
  uint64_t PairsExamined = 0;
};

} // namespace mahjong::core

#endif // MAHJONG_CORE_EQUIVCHECKER_H
