//===-- tests/TestUtil.cpp - Shared test helpers -----------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/DFAPartition.h"

#include <algorithm>
#include <set>

using namespace mahjong;
using namespace mahjong::core;
using namespace mahjong::ir;

namespace {

/// Sorted distinct type ids of a set of objects.
std::vector<uint32_t> typesOf(const Program &P,
                              const std::vector<ObjId> &Objs) {
  std::vector<uint32_t> Types;
  for (ObjId O : Objs)
    Types.push_back(P.obj(O).Type.idx());
  std::sort(Types.begin(), Types.end());
  Types.erase(std::unique(Types.begin(), Types.end()), Types.end());
  return Types;
}

/// The fields some object in \p Objs actually has (o_null contributes
/// nothing — its self-loops apply to any field the other side probes).
std::vector<FieldId> fieldsOf(const FieldPointsToGraph &G,
                              const std::vector<ObjId> &Objs) {
  std::vector<FieldId> Fields;
  for (ObjId O : Objs) {
    if (G.program().isNullObj(O))
      continue;
    for (const auto &[F, Targets] : G.fieldsOf(O))
      Fields.push_back(F);
  }
  std::sort(Fields.begin(), Fields.end());
  Fields.erase(std::unique(Fields.begin(), Fields.end()), Fields.end());
  return Fields;
}

/// One determinized step from the object set \p Objs along \p F,
/// mirroring the FPG/DFA conventions (null self-loops included).
std::vector<ObjId> step(const FieldPointsToGraph &G,
                        const std::vector<ObjId> &Objs, FieldId F) {
  std::vector<ObjId> Next;
  for (ObjId O : Objs)
    for (ObjId T : G.succ(O, F))
      Next.push_back(T);
  std::sort(Next.begin(), Next.end());
  Next.erase(std::unique(Next.begin(), Next.end()), Next.end());
  return Next;
}

/// Joint bounded exploration of Definition 2.1 on the pair of object
/// sets reached by some common path.
bool refCheck(const FieldPointsToGraph &G, const std::vector<ObjId> &SA,
              const std::vector<ObjId> &SB, unsigned Depth,
              std::set<std::pair<std::vector<ObjId>, std::vector<ObjId>>>
                  &Visited) {
  const Program &P = G.program();
  // Condition 1: the same path must reach the same set of types; an empty
  // set on one side and not the other is a mismatch.
  std::vector<uint32_t> TA = typesOf(P, SA), TB = typesOf(P, SB);
  if (TA != TB)
    return false;
  // Condition 2: every nonempty reached set must be single-typed.
  if (!SA.empty() && TA.size() != 1)
    return false;
  if (Depth == 0 || (SA.empty() && SB.empty()))
    return true;
  if (!Visited.insert({SA, SB}).second)
    return true; // joint state already explored
  // Probe the union alphabet; a field only one side has steps the other
  // side to the empty set (or keeps it on null self-loops via succ()).
  std::vector<FieldId> Fields = fieldsOf(G, SA);
  for (FieldId F : fieldsOf(G, SB))
    Fields.push_back(F);
  std::sort(Fields.begin(), Fields.end());
  Fields.erase(std::unique(Fields.begin(), Fields.end()), Fields.end());
  for (FieldId F : Fields)
    if (!refCheck(G, step(G, SA, F), step(G, SB, F), Depth - 1, Visited))
      return false;
  return true;
}

} // namespace

bool mahjong::test::refTypeConsistent(const FieldPointsToGraph &G, ObjId A,
                                      ObjId B, unsigned Depth) {
  std::set<std::pair<std::vector<ObjId>, std::vector<ObjId>>> Visited;
  return refCheck(G, {A}, {B}, Depth, Visited);
}

bool mahjong::test::refSingleType(DFACache &Cache, DFAStateId Start) {
  std::set<uint32_t> Seen{Start.idx()};
  std::vector<DFAStateId> Work{Start};
  while (!Work.empty()) {
    DFAStateId S = Work.back();
    Work.pop_back();
    if (Cache.outputs(S).size() != 1)
      return false;
    for (const auto &[F, T] : Cache.transitions(S))
      if (Seen.insert(T.idx()).second)
        Work.push_back(T);
  }
  return true;
}

bool mahjong::test::partitionSingleType(DFACache &Cache, ObjId O) {
  DFAStateId Start = Cache.startFor(O);
  Cache.expandAll();
  return DFAPartition(Cache).singleType(Start);
}
