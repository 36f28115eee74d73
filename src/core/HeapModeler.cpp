//===-- core/HeapModeler.cpp - MAHJONG's heap modeler (Alg. 1) --------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/HeapModeler.h"

#include "core/DFAPartition.h"
#include "obs/Trace.h"
#include "support/Timer.h"

#include <algorithm>
#include <map>

using namespace mahjong;
using namespace mahjong::core;
using namespace mahjong::ir;

HeapModelerResult mahjong::core::modelHeap(const FieldPointsToGraph &G,
                                           DFACache &Cache,
                                           const HeapModelerOptions &Opts) {
  Timer Clock;
  const Program &P = G.program();
  HeapModelerResult Result;
  Result.MOM.resize(P.numObjs());
  for (uint32_t I = 0; I < P.numObjs(); ++I)
    Result.MOM[I] = ObjId(I);

  // Build the shared automaton of every reachable object, then decide
  // both conditions of Definition 2.1 for all of its states at once.
  std::vector<ObjId> Objs = G.reachableObjs();
  Result.NumReachableObjs = Objs.size();
  std::vector<DFAStateId> Start;
  Start.reserve(Objs.size());
  {
    obs::ScopedSpan Span("dfa-materialize");
    for (ObjId O : Objs)
      Start.push_back(Cache.startFor(O));
    Cache.expandAll();
  }
  const DFAPartition Partition = [&Cache] {
    obs::ScopedSpan Span("dfa-minimize");
    return DFAPartition(Cache);
  }();

  // Algorithm 1 in one pass over the objects in allocation-site order.
  // Objects whose start states share a block are type-consistent (a start
  // state outputs {type}, so a block never mixes types); each block's
  // representative is its first object under FirstSite, its last under
  // LastSite. A condition-2 violator keeps its own class (lines 6-7).
  auto Merges = [&](size_t I) {
    return !Opts.EnforceCondition2 || Partition.singleType(Start[I]);
  };
  constexpr uint32_t NoRepr = ~0u;
  std::vector<uint32_t> ReprOf(Partition.numBlocks(), NoRepr);
  for (size_t I = 0; I < Objs.size(); ++I) {
    if (!Merges(I)) {
      ++Result.NumClasses;
      continue;
    }
    uint32_t &Repr = ReprOf[Partition.blockOf(Start[I])];
    if (Repr == NoRepr)
      ++Result.NumClasses;
    if (Repr == NoRepr || Opts.Repr == ReprPolicy::LastSite)
      Repr = Objs[I].idx();
  }
  for (size_t I = 0; I < Objs.size(); ++I)
    if (Merges(I))
      Result.MOM[Objs[I].idx()] = ObjId(ReprOf[Partition.blockOf(Start[I])]);
  Result.DFAStates = Cache.numStates();
  Result.Seconds = Clock.seconds();
  return Result;
}

std::vector<std::pair<ObjId, std::vector<ObjId>>>
mahjong::core::equivalenceClasses(const FieldPointsToGraph &G,
                                  const HeapModelerResult &Result) {
  std::map<uint32_t, std::vector<ObjId>> ByRepr;
  for (ObjId O : G.reachableObjs())
    ByRepr[Result.MOM[O.idx()].idx()].push_back(O);
  std::vector<std::pair<ObjId, std::vector<ObjId>>> Classes;
  Classes.reserve(ByRepr.size());
  for (auto &[Repr, Members] : ByRepr)
    Classes.emplace_back(ObjId(Repr), std::move(Members));
  std::stable_sort(Classes.begin(), Classes.end(),
                   [](const auto &A, const auto &B) {
                     return A.second.size() > B.second.size();
                   });
  return Classes;
}
