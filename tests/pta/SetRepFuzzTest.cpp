//===-- tests/pta/SetRepFuzzTest.cpp -----------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Differential fuzzing of the set operations the solvers run, under each
// cs-object numbering: seeded random operation sequences over a pool of
// sets — unions, differences, intersections and SetRepOps::filter, the
// cast filter — checked element-for-element against std::set<uint32_t>
// oracles after every step. The element distribution deliberately
// clusters around chunk boundaries (63/64/65, 127/128) and spreads
// sparsely so unions hit all three internal paths: the beyond-the-end
// append, the in-chunk OR, and the backward merge with new interior
// chunks. Every element is a real cs-object: the first draw of an id
// interns cs-objects of random sites under fresh heap contexts until the
// id exists, telling the filters as the solver does, so filters see
// objects born both before and after they materialize. Under hierarchy
// numbering the low ids are its ranked block and the rest ride in the
// per-filter bitmap above it.
//
//===----------------------------------------------------------------------===//

#include "pta/SetBackend.h"

#include "../TestUtil.h"

#include "pta/PointerAnalysis.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

using namespace mahjong;
using namespace mahjong::pta;
using namespace mahjong::test;

namespace {

/// A small hierarchy: filters through A pass a subtree, through D a leaf,
/// through E an unrelated class.
constexpr const char *TinyProgram = R"(
  class A { }
  class B extends A { }
  class C extends B { }
  class D extends A { }
  class E { }
  class Main {
    static method main() {
      a = new A;
      b = new B;
      c = new C;
      d = new D;
      e = new E;
    }
  }
)";

struct BackendCase {
  const char *Name;
  SetRep Rep;
};

/// gtest's default byte dump of a BackendCase shows the address of Name,
/// which moves from run to run; gtest_discover_tests copies that dump
/// into each ctest name. Print the backend name instead.
void PrintTo(const BackendCase &C, std::ostream *OS) { *OS << C.Name; }

class SetRepFuzz
    : public ::testing::TestWithParam<std::tuple<BackendCase, unsigned>> {};

std::string fuzzName(
    const ::testing::TestParamInfo<std::tuple<BackendCase, unsigned>> &I) {
  return std::string(std::get<0>(I.param).Name) + "_seed" +
         std::to_string(std::get<1>(I.param));
}

} // namespace

TEST_P(SetRepFuzz, MatchesStdSetOracle) {
  auto [Backend, Seed] = GetParam();
  auto P = parseOrDie(TinyProgram);
  ir::ClassHierarchy CH(*P);
  PTAResult R(*P, CH);
  SetRepOps Ops(Backend.Rep, R); // hierarchy: ranked block, ids 0..sites-1
  std::vector<TypeId> Classes;
  for (uint32_t T = 0; T < P->numTypes(); ++T)
    if (P->type(TypeId(T)).Kind == ir::TypeKind::Class)
      Classes.push_back(TypeId(T));
  std::vector<ObjId> Sites; // the class-typed allocation sites
  for (uint32_t O = 0; O < P->numObjs(); ++O)
    if (P->type(P->obj(ObjId(O)).Type).Kind == ir::TypeKind::Class)
      Sites.push_back(ObjId(O));

  std::mt19937 Rng(Seed);
  // Sites come from their own stream, so the operation and element draws
  // do not depend on how many cs-objects an id had to intern.
  std::mt19937 SiteRng(Seed);
  constexpr size_t Slots = 8;
  PointsToSet Sets[Slots];
  std::set<uint32_t> Refs[Slots];

  // Pre-interned cs-objects keep their site (the ranges cover them by
  // rank); every other id is a random site under a fresh heap context,
  // as a discovered context-sensitive object would be.
  CtxElem NextCtx = 0;
  auto Register = [&](uint32_t E) {
    while (R.CSM.numCSObjs() <= E) {
      ContextId HCtx = R.Ctxs.push(R.Ctxs.empty(), ++NextCtx, 1);
      CSObjId O = R.CSM.csObj(HCtx, Sites[SiteRng() % Sites.size()]);
      Ops.addObj(O.idx());
    }
  };
  auto RandomElem = [&]() -> uint32_t {
    uint32_t E;
    switch (Rng() % 4) {
    case 0: // chunk-boundary cluster: 62..66, 126..130
      E = (Rng() % 2 ? 62 : 126) + Rng() % 5;
      break;
    case 1: // dense low ids
      E = Rng() % 96;
      break;
    case 2: // mid-range
      E = Rng() % 4096;
      break;
    default: // sparse tail (forces interior-chunk merges)
      E = Rng() % 200000;
      break;
    }
    Register(E);
    return E;
  };
  auto Check = [&](size_t I, const char *What, int Op) {
    ASSERT_EQ(Sets[I].size(), Refs[I].size())
        << What << " op " << Op << " slot " << I;
    ASSERT_EQ(Sets[I].toVector(),
              std::vector<uint32_t>(Refs[I].begin(), Refs[I].end()))
        << What << " op " << Op << " slot " << I;
  };

  for (int Op = 0; Op < 1500; ++Op) {
    size_t I = Rng() % Slots;
    switch (Rng() % 8) {
    case 0: { // insert
      uint32_t E = RandomElem();
      ASSERT_EQ(Sets[I].insert(E), Refs[I].insert(E).second) << "op " << Op;
      break;
    }
    case 1: { // union of two pool slots
      size_t J = Rng() % Slots;
      if (J == I)
        break;
      size_t Before = Refs[I].size();
      bool Changed = Sets[I].unionWith(Sets[J]);
      Refs[I].insert(Refs[J].begin(), Refs[J].end());
      ASSERT_EQ(Changed, Refs[I].size() != Before) << "op " << Op;
      Check(I, "union dst", Op);
      Check(J, "union src (must not mutate)", Op);
      break;
    }
    case 2: { // the cast filter, built on its first use
      TypeId F = Classes[Rng() % Classes.size()];
      Ops.filter(Sets[I], F);
      for (auto It = Refs[I].begin(); It != Refs[I].end();)
        It = CH.isSubtype(R.typeOfCSObj(*It), F) ? std::next(It)
                                                 : Refs[I].erase(It);
      Check(I, "filter", Op);
      break;
    }
    case 3: { // union of a fresh delta, sometimes empty
      PointsToSet Delta;
      std::set<uint32_t> DeltaRef;
      for (int N = Rng() % 6; N > 0; --N) {
        uint32_t E = RandomElem();
        Delta.insert(E);
        DeltaRef.insert(E);
      }
      size_t Before = Refs[I].size();
      bool Changed = Sets[I].unionWith(Delta);
      Refs[I].insert(DeltaRef.begin(), DeltaRef.end());
      ASSERT_EQ(Changed, Refs[I].size() != Before) << "op " << Op;
      Check(I, "delta union", Op);
      break;
    }
    case 4: { // clear, or intersect with a pool neighbor
      size_t J = Rng() % Slots;
      if (Rng() % 4 == 0) { // keep clears rarer than growth
        Sets[I].clear();
        Refs[I].clear();
      } else if (J != I && Rng() % 3 == 0) {
        Sets[I].intersectWithRanges({}, &Sets[J]);
        for (auto It = Refs[I].begin(); It != Refs[I].end();)
          It = Refs[J].count(*It) ? std::next(It) : Refs[I].erase(It);
        Check(J, "intersect src (must not mutate)", Op);
      }
      Check(I, "clear/intersect", Op);
      break;
    }
    case 5: { // differenceFrom a pool neighbor
      size_t J = Rng() % Slots;
      PointsToSet Diff = Sets[I].differenceFrom(Sets[J]);
      std::vector<uint32_t> Want;
      for (uint32_t E : Refs[J])
        if (!Refs[I].count(E))
          Want.push_back(E);
      ASSERT_EQ(Diff.toVector(), Want) << "op " << Op;
      break;
    }
    case 6: { // point queries
      uint32_t E = RandomElem();
      ASSERT_EQ(Sets[I].contains(E), Refs[I].count(E) > 0) << "op " << Op;
      break;
    }
    default: { // copy-assign then diverge: copies never alias
      size_t J = Rng() % Slots;
      if (J == I)
        break;
      Sets[J] = Sets[I];
      Refs[J] = Refs[I];
      uint32_t E = RandomElem();
      ASSERT_EQ(Sets[J].insert(E), Refs[J].insert(E).second) << "op " << Op;
      Check(I, "copy source", Op);
      Check(J, "copy dest", Op);
      break;
    }
    }
  }
  for (size_t I = 0; I < Slots; ++I)
    Check(I, "final", 1500);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SetRepFuzz,
    ::testing::Combine(::testing::Values(BackendCase{"chunked",
                                                     SetRep::Chunked},
                                         BackendCase{"hierarchy",
                                                     SetRep::Hierarchy}),
                       ::testing::Range(1u, 9u)),
    fuzzName);

TEST(SetRepFuzz, EmptyWindowUnions) {
  // The append fast path (every delta chunk beyond the dst max) and the
  // empty-dst copy path, against the oracle.
  PointsToSet Dst;
  std::set<uint32_t> Ref;
  for (uint32_t Base : {0u, 1000u, 2000u, 3000u}) {
    PointsToSet Delta;
    for (uint32_t E : {Base + 63, Base + 64, Base + 65}) {
      Delta.insert(E);
      Ref.insert(E);
    }
    EXPECT_TRUE(Dst.unionWith(Delta));
    EXPECT_FALSE(Dst.unionWith(Delta)) << "re-union is a no-op";
  }
  EXPECT_EQ(Dst.toVector(), std::vector<uint32_t>(Ref.begin(), Ref.end()));
}
