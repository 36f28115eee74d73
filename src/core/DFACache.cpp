//===-- core/DFACache.cpp - Shared subset construction ----------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/DFACache.h"

#include <algorithm>
#include <cassert>

using namespace mahjong;
using namespace mahjong::core;
using namespace mahjong::ir;

DFACache::DFACache(const FieldPointsToGraph &G)
    : G(G), ClassStamp(G.numAdjClasses(), 0),
      TargetStamp(G.program().numObjs(), 0) {
  // State 0 is q_error: the empty object set with an empty output.
  DFAStateId Error = intern({});
  (void)Error;
  assert(Error == errorState() && "q_error must be state 0");
  // Pre-intern {o_null}: the sink for all-null suffixes (null self-loops).
  NullState = intern({Program::nullObj().idx()});
}

DFAStateId DFACache::intern(const std::vector<uint32_t> &SortedObjs) {
  DFAStateId S = Sets.intern(SortedObjs);
  if (S.idx() >= Outputs.size()) {
    Trans.resize(S.idx() + 1);
    TransComputed.resize(S.idx() + 1, false);
    Outputs.resize(S.idx() + 1);
    ContainsNull.resize(S.idx() + 1, false);
    const Program &P = G.program();
    std::vector<TypeId> Types;
    for (uint32_t Obj : SortedObjs) {
      if (Program::nullObj().idx() == Obj)
        ContainsNull[S.idx()] = true;
      Types.push_back(P.obj(ObjId(Obj)).Type);
    }
    std::sort(Types.begin(), Types.end());
    Types.erase(std::unique(Types.begin(), Types.end()), Types.end());
    Outputs[S.idx()] = std::move(Types);
  }
  return S;
}

DFAStateId DFACache::startFor(ObjId O) { return intern({O.idx()}); }

namespace {

/// Advances a stamp epoch, clearing the stamps when the counter wraps so
/// that a stale stamp can never equal the new epoch.
void nextEpoch(uint32_t &Epoch, std::vector<uint32_t> &Stamps) {
  if (++Epoch == 0) {
    std::fill(Stamps.begin(), Stamps.end(), 0);
    Epoch = 1;
  }
}

} // namespace

void DFACache::computeTransitions(DFAStateId S) {
  TransComputed[S.idx()] = true;
  // The distinct adjacency classes of the members. Read before anything
  // is interned: intern() can move the key storage Sets.get() points into.
  nextEpoch(ClassEpoch, ClassStamp);
  MemberClasses.clear();
  for (uint32_t Obj : Sets.get(S)) {
    if (Program::nullObj().idx() == Obj)
      continue; // its self-loops are added per field below
    uint32_t C = G.adjClassOf(ObjId(Obj));
    if (ClassStamp[C] != ClassEpoch) {
      ClassStamp[C] = ClassEpoch;
      MemberClasses.push_back(C);
    }
  }
  // One successor list per (class, field), grouped by field: the union
  // alphabet of the members, each symbol with the lists to merge
  // (Algorithm 3, line 10: q' = { δ[o_j, f] | o_j ∈ q }).
  FieldLists.clear();
  for (uint32_t C : MemberClasses)
    for (const auto &[F, Targets] : G.classFields(C))
      FieldLists.emplace_back(F, &Targets);
  std::sort(FieldLists.begin(), FieldLists.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });

  const uint32_t Null = Program::nullObj().idx();
  const bool HasNull = ContainsNull[S.idx()];
  TransitionList Result;
  for (size_t I = 0; I < FieldLists.size();) {
    FieldId F = FieldLists[I].first;
    nextEpoch(TargetEpoch, TargetStamp);
    NextObjs.clear();
    for (; I < FieldLists.size() && FieldLists[I].first == F; ++I) {
      SuccessorsScanned += FieldLists[I].second->size();
      for (ObjId T : *FieldLists[I].second)
        if (TargetStamp[T.idx()] != TargetEpoch) {
          TargetStamp[T.idx()] = TargetEpoch;
          NextObjs.push_back(T.idx());
        }
    }
    if (HasNull && TargetStamp[Null] != TargetEpoch)
      NextObjs.push_back(Null); // the null member self-loops on every field
    std::sort(NextObjs.begin(), NextObjs.end());
    Result.emplace_back(F, intern(NextObjs));
  }
  Trans[S.idx()] = std::move(Result);
}

const DFACache::TransitionList &DFACache::transitions(DFAStateId S) {
  if (!TransComputed[S.idx()])
    computeTransitions(S);
  return Trans[S.idx()];
}

DFAStateId DFACache::next(DFAStateId S, FieldId F) const {
  const TransitionList &Ts = transitions(S);
  auto It = std::lower_bound(
      Ts.begin(), Ts.end(), F,
      [](const auto &Entry, FieldId Key) { return Entry.first < Key; });
  if (It != Ts.end() && It->first == F)
    return It->second;
  // Missing field: a state containing o_null still self-loops on it.
  return defaultSink(S);
}

std::vector<ObjId> DFACache::members(DFAStateId S) const {
  std::vector<ObjId> Result;
  for (uint32_t Obj : Sets.get(S))
    Result.push_back(ObjId(Obj));
  return Result;
}

void DFACache::expandAll() {
  // The bound is re-read on every step: expansion interns new states.
  for (uint32_t I = 0; I < numStates(); ++I)
    (void)transitions(DFAStateId(I));
}
