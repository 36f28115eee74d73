//===-- core/DFACache.h - Shared subset construction ----------*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Determinization of the FPG-based NFAs (the paper's Algorithm 3), with
/// one crucial twist: DFA states — sets of FPG objects — are interned in a
/// single global table shared by every root object. Because two automata
/// rooted at different objects share all common sub-automata, converting
/// the second one mostly hits the cache. This realizes the paper's
/// "shared sequential automata" optimization (§5).
///
/// Conventions (paper §4.3/§4.4):
///  - state id 0 is q_error, the sink for missing transitions, with an
///    empty (unique) output set;
///  - o_null has an implicit self-loop on every field, so a state
///    containing o_null never falls off to q_error;
///  - outputs are the *sets* of member types; SINGLETYPE-CHECK demands
///    every reachable state's output be a singleton (Condition 2 of
///    Definition 2.1), which DFAPartition::singleType decides.
///
/// Subset construction over adjacency classes: a state's successor on
/// field f is the union of succ(o, f) over its members, and members with
/// identical fieldsOf() lists (one FPG adjacency class) contribute the
/// same successors. computeTransitions therefore reads each distinct
/// class's list once, in one pass over its fields, deduplicating targets
/// with a stamp array and sorting only the distinct ones. A state of
/// thousands of objects from a handful of classes costs a handful of
/// list scans (successorsScanned() counts them). Outputs still come from
/// every member, since objects of different types can share a class.
///
/// startFor, transitions and next expand the cache on demand; expandAll
/// closes it, after which the const accessors (and DFAPartition, which
/// decides both conditions of Definition 2.1 for every state) read it.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_CORE_DFACACHE_H
#define MAHJONG_CORE_DFACACHE_H

#include "core/FieldPointsToGraph.h"
#include "support/Interner.h"

#include <cassert>
#include <utility>
#include <vector>

namespace mahjong::core {

/// Globally shared determinized automaton over the FPG.
class DFACache {
public:
  using TransitionList = std::vector<std::pair<FieldId, DFAStateId>>;

  explicit DFACache(const FieldPointsToGraph &G);

  /// The DFA start state {o} for root object \p O. Interns the state (not
  /// its successors).
  DFAStateId startFor(ObjId O);

  /// The q_error sink (always state 0).
  static constexpr DFAStateId errorState() { return DFAStateId(0); }

  /// Enumerated transitions of \p S, sorted by field: the fields its
  /// member objects actually have. Computes and memoizes them on first
  /// use. The reference is invalidated by any later call that interns a
  /// new state; do not hold it across transitions()/next() on a
  /// not-yet-computed state.
  const TransitionList &transitions(DFAStateId S);

  /// The memoized transitions of an expanded state \p S.
  const TransitionList &transitions(DFAStateId S) const {
    assert(TransComputed[S.idx()] && "state not expanded");
    return Trans[S.idx()];
  }

  /// δ(S, F), total: falls back to the null self-loop state if S contains
  /// o_null, else to q_error.
  DFAStateId next(DFAStateId S, FieldId F) {
    (void)transitions(S);
    return std::as_const(*this).next(S, F);
  }
  DFAStateId next(DFAStateId S, FieldId F) const;

  /// The default sink of \p S for fields it lacks: the null self-loop
  /// state when S contains o_null, q_error otherwise.
  DFAStateId defaultSink(DFAStateId S) const {
    return ContainsNull[S.idx()] ? NullState : errorState();
  }

  /// Γ-output of \p S: sorted distinct member types (empty for q_error).
  const std::vector<TypeId> &outputs(DFAStateId S) const {
    return Outputs[S.idx()];
  }

  /// The member objects of \p S, sorted.
  std::vector<ObjId> members(DFAStateId S) const;

  /// Expands every interned state, including those interned along the
  /// way, until no new state appears. Afterwards the cache is closed:
  /// every state's transitions are computed and the const accessors
  /// cover the whole table.
  void expandAll();

  uint32_t numStates() const { return Sets.size(); }

  /// Successor-list entries read by computeTransitions since
  /// construction (statistics; lets tests assert that a state's members
  /// in one adjacency class cost one list scan, not one per member).
  uint64_t successorsScanned() const { return SuccessorsScanned; }

private:
  DFAStateId intern(const std::vector<uint32_t> &SortedObjs);
  void computeTransitions(DFAStateId S);

  const FieldPointsToGraph &G;
  Interner<DFAStateId, std::vector<uint32_t>, VectorHash> Sets;
  std::vector<TransitionList> Trans;
  std::vector<bool> TransComputed;
  std::vector<std::vector<TypeId>> Outputs;
  std::vector<bool> ContainsNull;
  DFAStateId NullState;           ///< the state {o_null}
  uint64_t SuccessorsScanned = 0; ///< list entries read by expansion

  // Reusable scratch of computeTransitions. A stamp equal to the current
  // epoch marks a class (resp. target object) as already taken.
  std::vector<uint32_t> ClassStamp, TargetStamp;
  uint32_t ClassEpoch = 0, TargetEpoch = 0;
  std::vector<uint32_t> MemberClasses;
  std::vector<std::pair<FieldId, const std::vector<ObjId> *>> FieldLists;
  std::vector<uint32_t> NextObjs;
};

} // namespace mahjong::core

#endif // MAHJONG_CORE_DFACACHE_H
