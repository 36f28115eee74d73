//===-- pta/SetBackend.cpp - Cs-object numbering and cast filters -----------===//
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

namespace {

constexpr uint32_t NoFilter = UINT32_MAX;

/// Pre-interns every allocation site's context-insensitive cs-object in
/// class-hierarchy rank order, so the cs-object raw id of (empty ctx,
/// site) *is* its rank. \returns the number of ranked objects.
uint32_t preInternRanked(PTAResult &R) {
  assert(R.CSM.numCSObjs() == 0 &&
         "hierarchy renumbering must precede all cs-object interning");
  const Program &P = R.P;
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

  // Rank allocation sites by (type key, site id), a stable total order.
  const uint32_t N = P.numObjs();
  std::vector<ObjId> RankToObj(N);
  for (uint32_t O = 0; O < N; ++O)
    RankToObj[O] = ObjId(O);
  std::sort(RankToObj.begin(), RankToObj.end(), [&](ObjId A, ObjId B) {
    uint32_t KA = Key[P.obj(A).Type.idx()], KB = Key[P.obj(B).Type.idx()];
    return KA != KB ? KA < KB : A.idx() < B.idx();
  });
  for (uint32_t Rank = 0; Rank < N; ++Rank) {
    CSObjId Id = R.CSM.csObj(R.Ctxs.empty(), RankToObj[Rank]);
    (void)Id;
    assert(Id.idx() == Rank && "pre-interned cs-object id must equal rank");
  }
  return N;
}

} // namespace

SetRepOps::SetRepOps(SetRep Kind, PTAResult &R)
    : R(R), FilterOf(R.P.numTypes(), NoFilter) {
  // Deliberately no pre-interning under Chunked: cs-object raw ids then
  // follow each engine's *discovery order*, and the windowed union leans
  // on it — newly discovered objects get the highest ids, so fresh
  // deltas land in the tail window and unions stay O(window).
  // Pre-interning in program order was tried and destroyed that locality
  // (150x solve-time regressions on profiles whose reachability order
  // diverges from program order). The cost is that chunk *packing* — and
  // with it SetBytes — can differ by a handful of chunks between the
  // naive and wave discovery orders; rank order pins numbering outright.
  if (Kind == SetRep::Hierarchy)
    NumRanked = preInternRanked(R);
}

void SetRepOps::addObj(uint32_t CSObjRaw) {
  assert(CSObjRaw >= NumRanked && "ranked objects are covered by ranges");
  TypeId T = R.typeOfCSObj(CSObjRaw);
  for (Filter &Flt : Filters)
    if (R.CH.isSubtype(T, Flt.Target))
      Flt.Above.insert(CSObjRaw);
}

void SetRepOps::filter(PointsToSet &S, TypeId F) {
  const Filter &Flt = materialize(F);
  S.intersectWithRanges(Flt.RankRanges, &Flt.Above);
}

const SetRepOps::Filter &SetRepOps::materialize(TypeId F) {
  uint32_t &Slot = FilterOf[F.idx()];
  if (Slot != NoFilter)
    return Filters[Slot];
  Slot = static_cast<uint32_t>(Filters.size());
  Filter &Flt = Filters.emplace_back();
  Flt.Target = F;
  // Run-length encode the pass verdict over rank space. Exact by
  // construction — the oracle is the same isSubtype the naive engine
  // applies per element — and compact because ranks order types so that
  // every filter's pass set is a handful of contiguous runs.
  uint32_t Start = 0;
  bool In = false;
  for (uint32_t Rank = 0; Rank < NumRanked; ++Rank) {
    bool Pass = R.CH.isSubtype(R.typeOfCSObj(Rank), F);
    if (Pass && !In) {
      Start = Rank;
      In = true;
    } else if (!Pass && In) {
      Flt.RankRanges.emplace_back(Start, Rank);
      In = false;
    }
  }
  if (In)
    Flt.RankRanges.emplace_back(Start, NumRanked);
  // Sweep the cs-objects interned so far above the ranked block; addObj
  // keeps the bitmap current from here on.
  for (uint32_t Raw = NumRanked; Raw < R.CSM.numCSObjs(); ++Raw)
    if (R.CH.isSubtype(R.typeOfCSObj(Raw), F))
      Flt.Above.insert(Raw);
  return Flt;
}
