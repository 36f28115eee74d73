//===-- tests/pta/HierarchyOrderTest.cpp -------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Properties of the cs-object numbering (SetRepOps): allocation sites
// rank in class-hierarchy DFS order (null first, every subtree
// contiguous, arrays after classes), cast filters collapse to a handful
// of [lo, hi) rank ranges whose pass set matches the semantic isSubtype
// verdict element for element, and context-sensitive objects interned
// after the ranked block ride in the per-filter bitmap above it — both
// when they appear before and after the filter materializes.
//
//===----------------------------------------------------------------------===//

#include "pta/SetBackend.h"

#include "../TestUtil.h"

#include "pta/ResultDigest.h"
#include "workload/BenchmarkPrograms.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

using namespace mahjong;
using namespace mahjong::ir;
using namespace mahjong::pta;
using namespace mahjong::test;

namespace {

constexpr const char *DiamondFreeSource = R"(
  class A { }
  class B extends A { }
  class C extends B { }
  class D { }
  class Main {
    static method main() {
      d1 = new D;
      a1 = new A;
      c1 = new C;
      b1 = new B;
      a2 = new A;
      d2 = new D;
      r = new A[];
    }
  }
)";

/// SetRepOps wants a virgin PTAResult (no cs-objects interned yet).
struct Prepared {
  std::unique_ptr<ir::Program> P;
  std::unique_ptr<ClassHierarchy> CH;
  std::unique_ptr<PTAResult> R;
  std::unique_ptr<SetRepOps> Ops;
};

Prepared prepareHierarchy(std::string_view Src) {
  Prepared H;
  H.P = parseOrDie(Src);
  H.CH = std::make_unique<ClassHierarchy>(*H.P);
  H.R = std::make_unique<PTAResult>(*H.P, *H.CH);
  H.Ops = std::make_unique<SetRepOps>(*H.R);
  return H;
}

Prepared prepareProfile(const std::string &Name, double Scale) {
  Prepared H;
  H.P = workload::buildBenchmarkProgram(Name, Scale);
  H.CH = std::make_unique<ClassHierarchy>(*H.P);
  H.R = std::make_unique<PTAResult>(*H.P, *H.CH);
  H.Ops = std::make_unique<SetRepOps>(*H.R);
  return H;
}

/// The first allocation site of type \p T.
ObjId siteOfType(const ir::Program &P, TypeId T) {
  for (uint32_t O = 0; O < P.numObjs(); ++O)
    if (P.obj(ObjId(O)).Type == T)
      return ObjId(O);
  return ObjId();
}

} // namespace

TEST(HierarchyOrder, RanksAreAPermutationWithNullFirst) {
  Prepared H = prepareHierarchy(DiamondFreeSource);
  const uint32_t N = H.P->numObjs();
  ASSERT_EQ(H.Ops->numRanked(), N);
  // Every allocation site appears exactly once.
  std::vector<bool> Seen(N, false);
  for (uint32_t Rank = 0; Rank < N; ++Rank) {
    ObjId O = H.R->baseObjOf(Rank);
    ASSERT_LT(O.idx(), N);
    EXPECT_FALSE(Seen[O.idx()]) << "rank " << Rank;
    Seen[O.idx()] = true;
  }
  // The null object ranks first (its type key is 0; null passes every
  // cast, so it must land in every filter's leading range).
  EXPECT_EQ(H.P->obj(H.R->baseObjOf(0)).Type, H.P->nullType());
  // Pre-interning made rank == cs-object raw id.
  EXPECT_EQ(H.R->CSM.numCSObjs(), N);
}

TEST(HierarchyOrder, SubtreesAreContiguousAndFiltersAreFewRanges) {
  Prepared H = prepareHierarchy(DiamondFreeSource);
  // Objects of one type occupy contiguous ranks.
  std::map<uint32_t, std::vector<uint32_t>> RanksByType;
  for (uint32_t Rank = 0; Rank < H.Ops->numRanked(); ++Rank)
    RanksByType[H.P->obj(H.R->baseObjOf(Rank)).Type.idx()].push_back(Rank);
  for (const auto &[T, Ranks] : RanksByType)
    for (size_t I = 1; I < Ranks.size(); ++I)
      EXPECT_EQ(Ranks[I], Ranks[I - 1] + 1)
          << "type " << H.P->type(TypeId(T)).Name;
  // A mid-tree class filter: null (rank 0) plus the {B, C} subtree, which
  // the DFS keyed contiguously — at most two ranges.
  TypeId B = H.P->typeByName("B");
  ASSERT_TRUE(B.isValid());
  const auto &Ranges = H.Ops->rangesOf(B);
  EXPECT_LE(Ranges.size(), 2u) << "null + one contiguous subtree run";
  // And its pass set is exactly the semantic one.
  PointsToSet All;
  for (uint32_t Rank = 0; Rank < H.Ops->numRanked(); ++Rank)
    All.insert(Rank);
  PointsToSet Filtered = All;
  H.Ops->filter(Filtered, B);
  for (uint32_t Rank = 0; Rank < H.Ops->numRanked(); ++Rank)
    EXPECT_EQ(Filtered.contains(Rank),
              H.CH->isSubtype(H.P->obj(H.R->baseObjOf(Rank)).Type, B))
        << "rank " << Rank;
}

TEST(HierarchyOrder, RangeFiltersMatchSemanticsOnRealHierarchies) {
  // Differential check over a generated workload: every class type's
  // range filter, applied to random rank sets, matches the per-element
  // isSubtype oracle (the same filtering NaiveSolver performs).
  Prepared H = prepareProfile("luindex", 0.05);
  std::mt19937 Rng(11);
  const uint32_t N = H.Ops->numRanked();
  uint32_t ClassTypes = 0;
  for (uint32_t T = 0; T < H.P->numTypes() && ClassTypes < 40; ++T) {
    TypeId F(T);
    if (H.P->type(F).Kind != TypeKind::Class)
      continue;
    ++ClassTypes;
    // Ranges are sorted, disjoint, in-bounds.
    const auto &Ranges = H.Ops->rangesOf(F);
    for (size_t I = 0; I < Ranges.size(); ++I) {
      EXPECT_LT(Ranges[I].first, Ranges[I].second);
      EXPECT_LE(Ranges[I].second, N);
      if (I) {
        EXPECT_LT(Ranges[I - 1].second, Ranges[I].first);
      }
    }
    PointsToSet S;
    for (int Draw = 0; Draw < 200; ++Draw)
      S.insert(Rng() % N);
    PointsToSet Got = S;
    H.Ops->filter(Got, F);
    PointsToSet Want;
    for (uint32_t Rank : S)
      if (H.CH->isSubtype(H.P->obj(H.R->baseObjOf(Rank)).Type, F))
        Want.insert(Rank);
    EXPECT_TRUE(Got == Want) << "filter " << H.P->type(F).Name;
  }
  EXPECT_GT(ClassTypes, 0u);
}

TEST(HierarchyOrder, OverflowCarriesLateContextSensitiveObjects) {
  Prepared H = prepareHierarchy(DiamondFreeSource);
  TypeId A = H.P->typeByName("A");
  TypeId D = H.P->typeByName("D");
  ASSERT_TRUE(A.isValid() && D.isValid());
  const uint32_t N = H.Ops->numRanked();

  // Context-sensitive cs-objects: a site under a fresh heap context,
  // interned and announced as the solver does.
  auto Late = [&](TypeId T, CtxElem Ctx) {
    ContextId HCtx = H.R->Ctxs.push(H.R->Ctxs.empty(), Ctx, 1);
    CSObjId O = H.R->CSM.csObj(HCtx, siteOfType(*H.P, T));
    H.Ops->addObj(O.idx());
    return O.idx();
  };
  // One cs-object interned BEFORE the filter materializes (the sweep
  // path) and one after (the addObj path); a D-typed one must stay out
  // either way.
  ASSERT_EQ(Late(H.P->typeByName("C"), 1), N + 0);
  H.Ops->rangesOf(A); // materializes A's filter
  ASSERT_EQ(Late(A, 2), N + 1);
  ASSERT_EQ(Late(D, 3), N + 2);

  PointsToSet S;
  for (uint32_t Raw : {N + 0, N + 1, N + 2})
    S.insert(Raw);
  S.insert(0); // null passes
  PointsToSet Got = S;
  H.Ops->filter(Got, A);
  EXPECT_TRUE(Got.contains(N + 0)) << "swept into the bitmap at materialize";
  EXPECT_TRUE(Got.contains(N + 1)) << "added to the bitmap at addObj";
  EXPECT_FALSE(Got.contains(N + 2)) << "D is not a subtype of A";
  EXPECT_TRUE(Got.contains(0)) << "null passes every cast";
  // typeOfCSObj serves the naive engine's per-element filter for late
  // objects, and only the three late objects exist above the block.
  EXPECT_EQ(H.R->typeOfCSObj(N + 2), D);
  EXPECT_EQ(H.R->CSM.numCSObjs(), N + 3);
}

TEST(HierarchyOrder, ContextSensitiveAnalysisMatchesChunkedDigest) {
  // AnalysisOptions::Rep is ignored: a run that still asks for the old
  // chunked numbering (as bench/e2e does) gets the one numbering, with the
  // same digest and the same cs-objects as the default, end to end under
  // 2obj.
  auto P = workload::buildBenchmarkProgram("antlr", 0.03);
  ClassHierarchy CH(*P);
  uint64_t Digest[2] = {0, 0};
  uint64_t CSObjs[2] = {0, 0};
  for (int I = 0; I < 2; ++I) {
    AnalysisOptions Opts;
    Opts.Kind = ContextKind::Object;
    Opts.K = 2;
    if (I)
      Opts.Rep = SetRep::Chunked;
    auto R = runPointerAnalysis(*P, CH, Opts);
    Digest[I] = canonicalResultDigest(*R);
    CSObjs[I] = R->Stats.NumCSObjs;
  }
  EXPECT_EQ(Digest[0], Digest[1]);
  EXPECT_EQ(CSObjs[0], CSObjs[1]);
  // Every site is pre-interned, and 2obj adds context-sensitive objects
  // above the ranked block, so the path above it actually ran.
  EXPECT_GT(CSObjs[0], P->numObjs())
      << "2obj must allocate context-sensitive heap objects";
}
