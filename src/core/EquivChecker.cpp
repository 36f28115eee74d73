//===-- core/EquivChecker.cpp - Hopcroft-Karp equivalence -------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/EquivChecker.h"

#include <utility>
#include <vector>

using namespace mahjong;
using namespace mahjong::core;

uint32_t EquivChecker::LazyUnionFind::find(uint32_t X) {
  auto It = Parent.find(X);
  if (It == Parent.end())
    return X; // untouched elements are their own singletons
  // Path-compressing find over the sparse parent map.
  uint32_t Root = X;
  while (true) {
    auto Next = Parent.find(Root);
    if (Next == Parent.end() || Next->second == Root)
      break;
    Root = Next->second;
  }
  while (X != Root) {
    uint32_t &Slot = Parent[X];
    uint32_t NextX = Slot;
    Slot = Root;
    X = NextX;
  }
  return Root;
}

void EquivChecker::LazyUnionFind::unite(uint32_t A, uint32_t B) {
  uint32_t RA = find(A), RB = find(B);
  if (RA != RB)
    Parent[RA] = RB;
}

bool EquivChecker::equivalent(DFAStateId A, DFAStateId B) {
  if (A == B)
    return true;
  LazyUnionFind UF;
  std::vector<std::pair<DFAStateId, DFAStateId>> Stack;

  // Uniting two states asserts they behave identically, so their outputs
  // must agree; checking at union time is the incremental equivalent of
  // Algorithm 4's final pass over every merged class.
  auto UniteChecked = [&](DFAStateId X, DFAStateId Y) -> bool {
    if (Cache.outputs(X) != Cache.outputs(Y))
      return false;
    UF.unite(X.idx(), Y.idx());
    Stack.emplace_back(X, Y);
    return true;
  };

  if (!UniteChecked(A, B))
    return false;

  while (!Stack.empty()) {
    auto [P1, P2] = Stack.back();
    Stack.pop_back();
    ++PairsExamined;
    // Expand both states first: computing one state's transitions can
    // intern new states and move the transition table, so no reference
    // into it may be taken before both are computed.
    (void)Cache.transitions(P1);
    (void)Cache.transitions(P2);
    const DFACache::TransitionList &T1 = std::as_const(Cache).transitions(P1);
    const DFACache::TransitionList &T2 = std::as_const(Cache).transitions(P2);
    // The relevant alphabet is the union of both states' field sets; a
    // field one side lacks takes that side's default sink, and on any
    // other symbol both sides take their default sinks, which agree
    // whenever the outputs (and hence null membership) agree.
    size_t I = 0, J = 0;
    while (I < T1.size() || J < T2.size()) {
      DFAStateId N1, N2;
      if (J >= T2.size() || (I < T1.size() && T1[I].first < T2[J].first)) {
        N1 = T1[I++].second;
        N2 = Cache.defaultSink(P2);
      } else if (I >= T1.size() || T2[J].first < T1[I].first) {
        N1 = Cache.defaultSink(P1);
        N2 = T2[J++].second;
      } else {
        N1 = T1[I++].second;
        N2 = T2[J++].second;
      }
      if (UF.find(N1.idx()) != UF.find(N2.idx()) && !UniteChecked(N1, N2))
        return false;
    }
  }
  return true;
}
