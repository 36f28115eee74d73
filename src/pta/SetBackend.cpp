//===-- pta/SetBackend.cpp - Pluggable set-representation backends ----------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pta/SetBackend.h"

#include "ir/ClassHierarchy.h"
#include "ir/Program.h"
#include "pta/PointerAnalysis.h"

#include <algorithm>
#include <cassert>

using namespace mahjong;
using namespace mahjong::ir;
using namespace mahjong::pta;

// Deliberately no pre-interning here: the chunked backend keeps each
// engine's *discovery order* for cs-object raw ids, because the
// windowed union leans on it — newly discovered objects get the highest
// ids, so fresh deltas land in the tail window and unions stay O(window).
// Pre-interning in program order was tried and destroyed that locality
// (150x solve-time regressions on profiles whose reachability order
// diverges from program order). The cost is that chunk *packing* — and
// with it SetBytes — can differ by a handful of chunks between the naive
// and wave discovery orders; the hierarchy backend pins numbering
// outright.
void SetRepOps::prepare(PTAResult &R) { (void)R; }

void SetRepOps::registerObj(uint32_t CSObjRaw, TypeId T) {
  if (CSObjRaw >= ObjTypes.size()) {
    if (CSObjRaw >= ObjTypes.capacity())
      ObjTypes.reserve(
          std::max<size_t>(CSObjRaw + 1, ObjTypes.capacity() * 2));
    ObjTypes.resize(CSObjRaw + 1, TypeId());
  }
  ObjTypes[CSObjRaw] = T;
}

//===----------------------------------------------------------------------===//
// ChunkedOps
//===----------------------------------------------------------------------===//

void ChunkedOps::registerObj(uint32_t CSObjRaw, TypeId T) {
  SetRepOps::registerObj(CSObjRaw, T);
  // Keep every already-materialized filter bitmap current: a cs-object
  // born after the bitmap was built must still pass future casts.
  for (auto &[FilterRaw, Objs] : FilterObjs)
    if (CH.isSubtype(T, TypeId(FilterRaw)))
      Objs.insert(CSObjRaw);
}

void ChunkedOps::materializeFilter(TypeId F) {
  auto [It, Inserted] = FilterObjs.try_emplace(F.idx());
  if (!Inserted)
    return;
  // First cast through this type: sweep the cs-objects seen so far.
  // registerObj keeps the bitmap current from here on.
  for (uint32_t Raw = 0; Raw < ObjTypes.size(); ++Raw)
    if (ObjTypes[Raw].isValid() && CH.isSubtype(ObjTypes[Raw], F))
      It->second.insert(Raw);
}

void ChunkedOps::applyFilter(PointsToSet &S, TypeId F) const {
  auto It = FilterObjs.find(F.idx());
  assert(It != FilterObjs.end() && "filter bitmap not materialized");
  S.intersectWith(It->second);
}

//===----------------------------------------------------------------------===//
// HierarchyOps
//===----------------------------------------------------------------------===//

void HierarchyOps::prepare(PTAResult &R) {
  assert(R.CSM.numCSObjs() == 0 &&
         "hierarchy renumbering must precede all cs-object interning");
  const uint32_t NumTypes = P.numTypes();

  // Per-type order key. Null type: 0, so o_null ranks first and lands in
  // every filter's leading range (null passes every cast). Classes: 1 +
  // DFS index over the single-inheritance tree, children in ascending
  // type-id order — every subtree is a contiguous key interval, which is
  // what turns a class filter into one range. Arrays: a large offset plus
  // the element's key, so arrays group by element subtree and array
  // covariance (E1[] <= E2[] iff E1 <= E2) also yields contiguous runs;
  // nested arrays recurse onto another offset band.
  constexpr uint32_t kArrayBase = 1u << 22;
  std::vector<uint32_t> Key(NumTypes, 0);
  std::vector<std::vector<TypeId>> Children(NumTypes);
  for (uint32_t T = 0; T < NumTypes; ++T) {
    const TypeInfo &TI = P.type(TypeId(T));
    if (TI.Kind == TypeKind::Class && TI.Super.isValid())
      Children[TI.Super.idx()].push_back(TypeId(T));
  }
  uint32_t NextKey = 1;
  std::vector<TypeId> Stack;
  if (P.objectType().isValid())
    Stack.push_back(P.objectType());
  while (!Stack.empty()) {
    TypeId T = Stack.back();
    Stack.pop_back();
    Key[T.idx()] = NextKey++;
    const std::vector<TypeId> &Cs = Children[T.idx()];
    for (auto It = Cs.rbegin(); It != Cs.rend(); ++It)
      Stack.push_back(*It);
  }
  for (bool Progress = true; Progress;) {
    Progress = false;
    for (uint32_t T = 0; T < NumTypes; ++T) {
      const TypeInfo &TI = P.type(TypeId(T));
      if (TI.Kind != TypeKind::Array || Key[T] != 0)
        continue;
      if (P.type(TI.Elem).Kind == TypeKind::Array && Key[TI.Elem.idx()] == 0)
        continue; // element array not keyed yet; next sweep
      Key[T] = kArrayBase + Key[TI.Elem.idx()];
      Progress = true;
    }
  }

  // Rank allocation sites by (type key, site id) — a stable total order —
  // and pre-intern their context-insensitive cs-objects in that order, so
  // the cs-object raw id of (empty ctx, site) *is* its rank.
  const uint32_t N = P.numObjs();
  RankToObj.resize(N);
  for (uint32_t O = 0; O < N; ++O)
    RankToObj[O] = ObjId(O);
  std::sort(RankToObj.begin(), RankToObj.end(), [&](ObjId A, ObjId B) {
    uint32_t KA = Key[P.obj(A).Type.idx()], KB = Key[P.obj(B).Type.idx()];
    return KA != KB ? KA < KB : A.idx() < B.idx();
  });
  TypeOfRank.resize(N);
  for (uint32_t Rank = 0; Rank < N; ++Rank) {
    TypeOfRank[Rank] = P.obj(RankToObj[Rank]).Type;
    CSObjId Id = R.CSM.csObj(R.Ctxs.empty(), RankToObj[Rank]);
    (void)Id;
    assert(Id.idx() == Rank && "pre-interned cs-object id must equal rank");
  }
  NumRanked = N;
}

void HierarchyOps::registerObj(uint32_t CSObjRaw, TypeId T) {
  SetRepOps::registerObj(CSObjRaw, T);
  if (CSObjRaw < NumRanked)
    return; // ranked block: range masks cover it by construction
  // A context-sensitive heap object born after prepare(): add it to the
  // overflow bitmap of every filter it passes, mirroring what
  // ChunkedOps does for its full bitmaps.
  for (auto &[FilterRaw, Flt] : Filters)
    if (CH.isSubtype(T, TypeId(FilterRaw)))
      Flt.Overflow.insert(CSObjRaw);
}

void HierarchyOps::materializeFilter(TypeId F) {
  auto [It, Inserted] = Filters.try_emplace(F.idx());
  if (!Inserted)
    return;
  Filter &Flt = It->second;
  // Run-length encode the pass verdict over rank space. Exact by
  // construction — the oracle is the same isSubtype every other filter
  // mechanism uses — and compact because ranks order types so that every
  // filter's pass set is a handful of contiguous runs.
  uint32_t Start = 0;
  bool In = false;
  for (uint32_t Rank = 0; Rank < NumRanked; ++Rank) {
    bool Pass = CH.isSubtype(TypeOfRank[Rank], F);
    if (Pass && !In) {
      Start = Rank;
      In = true;
    } else if (!Pass && In) {
      Flt.Ranges.emplace_back(Start, Rank);
      In = false;
    }
  }
  if (In)
    Flt.Ranges.emplace_back(Start, NumRanked);
  for (uint32_t Raw = NumRanked; Raw < ObjTypes.size(); ++Raw)
    if (ObjTypes[Raw].isValid() && CH.isSubtype(ObjTypes[Raw], F))
      Flt.Overflow.insert(Raw);
}

void HierarchyOps::applyFilter(PointsToSet &S, TypeId F) const {
  auto It = Filters.find(F.idx());
  assert(It != Filters.end() && "filter ranges not materialized");
  S.intersectWithRanges(It->second.Ranges, &It->second.Overflow);
}

std::unique_ptr<SetRepOps> mahjong::pta::makeSetRepOps(
    SetRep Rep, const Program &P, const ClassHierarchy &CH) {
  if (Rep == SetRep::Hierarchy)
    return std::make_unique<HierarchyOps>(P, CH);
  return std::make_unique<ChunkedOps>(P, CH);
}
