//===-- tests/core/HeapModelerTest.cpp ---------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Algorithm 1 end to end: the paper's Figure 1 merging, Condition 2
// (Example 2.4), null-field separation, representative policies, and
// agreement with the paper's pairwise scan and with Definition 2.1.
//
//===----------------------------------------------------------------------===//

#include "core/HeapModeler.h"

#include "../TestUtil.h"
#include "core/EquivChecker.h"
#include "core/Mahjong.h"
#include "workload/SyntheticBuilder.h"

#include <gtest/gtest.h>

#include <random>

using namespace mahjong;
using namespace mahjong::core;
using namespace mahjong::ir;
using namespace mahjong::test;

namespace {

const char *Figure1Src = R"(
  class A { field f: A; method foo() { return this; } }
  class B extends A { method foo() { return this; } }
  class C extends A { method foo() { return this; } }
  class Main {
    static method main() {
      x = new A;   // o1
      y = new A;   // o2
      z = new A;   // o3
      xf = new B;  // o4
      x.f = xf;
      yf = new C;  // o5
      y.f = yf;
      zf = new C;  // o6
      z.f = zf;
      a = z.f;
      a.foo();
      c = (C) a;
    }
  }
)";

struct Modeled {
  std::unique_ptr<Program> P;
  std::unique_ptr<ClassHierarchy> CH;
  std::unique_ptr<pta::PTAResult> Pre;
  std::unique_ptr<FieldPointsToGraph> G;
  std::unique_ptr<DFACache> Cache;
  HeapModelerResult Result;
};

Modeled model(std::string_view Src, const HeapModelerOptions &Opts = {}) {
  Modeled M;
  M.P = parseOrDie(Src);
  M.CH = std::make_unique<ClassHierarchy>(*M.P);
  pta::AnalysisOptions PreOpts;
  M.Pre = pta::runPointerAnalysis(*M.P, *M.CH, PreOpts);
  M.G = std::make_unique<FieldPointsToGraph>(*M.Pre);
  M.Cache = std::make_unique<DFACache>(*M.G);
  M.Result = modelHeap(*M.G, *M.Cache, Opts);
  return M;
}

/// Algorithm 1 as the paper states it: each reachable object, in
/// allocation-site order, is compared through Hopcroft-Karp with the
/// first object of every class found so far and joins the first match;
/// when \p EnforceC2, an object failing the per-root SINGLETYPE-CHECK
/// keeps its own class. Returns the MOM, with each class represented by
/// its first or last object per \p Repr.
std::vector<ObjId> pairwiseScan(const FieldPointsToGraph &G, bool EnforceC2,
                                ReprPolicy Repr, uint32_t &NumClasses) {
  DFACache Cache(G);
  EquivChecker Checker(Cache);
  std::vector<std::vector<ObjId>> Classes;
  std::vector<DFAStateId> ClassStart; // invalid: a violator's own class
  for (ObjId O : G.reachableObjs()) {
    DFAStateId Start = Cache.startFor(O);
    bool Joined = false;
    if (!EnforceC2 || refSingleType(Cache, Start)) {
      for (size_t C = 0; C < Classes.size() && !Joined; ++C)
        if (ClassStart[C].isValid() &&
            Checker.equivalent(ClassStart[C], Start)) {
          Classes[C].push_back(O);
          Joined = true;
        }
    } else {
      Start = DFAStateId::invalid();
    }
    if (!Joined) {
      Classes.push_back({O});
      ClassStart.push_back(Start);
    }
  }
  std::vector<ObjId> MOM(G.program().numObjs());
  for (uint32_t I = 0; I < MOM.size(); ++I)
    MOM[I] = ObjId(I);
  for (const std::vector<ObjId> &Members : Classes)
    for (ObjId O : Members)
      MOM[O.idx()] =
          Repr == ReprPolicy::FirstSite ? Members.front() : Members.back();
  NumClasses = Classes.size();
  return MOM;
}

} // namespace

TEST(HeapModeler, Figure1MergesTypeConsistentObjectsOnly) {
  Modeled M = model(Figure1Src);
  const std::vector<ObjId> &MOM = M.Result.MOM;
  EXPECT_EQ(MOM[2], MOM[3]) << "o2 === o3 (both store a C)";
  EXPECT_NE(MOM[1], MOM[2]) << "o1 stores a B: not type-consistent";
  EXPECT_EQ(MOM[5], MOM[6]) << "the two C objects merge too";
  EXPECT_NE(MOM[4], MOM[5]) << "B and C never merge (different types)";
  // 6 reachable objects -> 4 classes: {o1}, {o2,o3}, {o4}, {o5,o6}.
  EXPECT_EQ(M.Result.NumReachableObjs, 6u);
  EXPECT_EQ(M.Result.NumClasses, 4u);
}

TEST(HeapModeler, NullObjectIsNeverMerged) {
  Modeled M = model(Figure1Src);
  EXPECT_EQ(M.Result.MOM[0], Program::nullObj());
}

TEST(HeapModeler, UnreachableObjectsKeepIdentity) {
  Modeled M = model(R"(
    class A { }
    class Main {
      static method main() { a = new A; }
      static method dead() { b = new A; c = new A; }
    }
  )");
  EXPECT_EQ(M.Result.MOM[2], ObjId(2));
  EXPECT_EQ(M.Result.MOM[3], ObjId(3));
  EXPECT_EQ(M.Result.NumClasses, 1u) << "only the reachable object counts";
}

TEST(HeapModeler, Condition2BlocksMergingOfMixedSites) {
  // Example 2.4 / Figure 3: both objects' f reaches {X, Y} in the
  // pre-analysis; they must NOT merge while Condition 2 is on.
  const char *Src = R"(
    class T { field f: Object; }
    class X { }
    class Y { }
    class Main {
      static method main() {
        ti = new T;   // o1
        tj = new T;   // o2
        x = new X;    // o3
        y = new Y;    // o4
        m = x;
        m = y;        // m: {X, Y}
        ti.f = m;
        tj.f = m;
      }
    }
  )";
  Modeled WithC2 = model(Src);
  EXPECT_NE(WithC2.Result.MOM[1], WithC2.Result.MOM[2])
      << "Condition 2 keeps the mixed sites apart";

  HeapModelerOptions NoC2;
  NoC2.EnforceCondition2 = false;
  Modeled WithoutC2 = model(Src, NoC2);
  EXPECT_EQ(WithoutC2.Result.MOM[1], WithoutC2.Result.MOM[2])
      << "the ablation merges them (and would lose precision)";
}

TEST(HeapModeler, NullFieldSeparatesFromWrittenField) {
  // The Table 1 ASTPair pattern: same type, one site never writes f.
  Modeled M = model(R"(
    class T { field f: U; }
    class U { }
    class Main {
      static method main() {
        a = new T;   // o1: f -> U
        b = new T;   // o2: f -> U
        z = new T;   // o3: f stays null
        u1 = new U;
        u2 = new U;
        a.f = u1;
        b.f = u2;
      }
    }
  )");
  EXPECT_EQ(M.Result.MOM[1], M.Result.MOM[2]);
  EXPECT_NE(M.Result.MOM[1], M.Result.MOM[3]);
}

TEST(HeapModeler, RepresentativePolicyPicksFirstOrLast) {
  HeapModelerOptions First;
  First.Repr = ReprPolicy::FirstSite;
  Modeled MF = model(Figure1Src, First);
  EXPECT_EQ(MF.Result.MOM[3], ObjId(2)) << "o2 represents {o2,o3}";

  HeapModelerOptions Last;
  Last.Repr = ReprPolicy::LastSite;
  Modeled ML = model(Figure1Src, Last);
  EXPECT_EQ(ML.Result.MOM[2], ObjId(3)) << "o3 represents {o2,o3}";
}

TEST(HeapModeler, EquivalenceClassesAreSortedBySize) {
  Modeled M = model(Figure1Src);
  auto Classes = equivalenceClasses(*M.G, M.Result);
  ASSERT_EQ(Classes.size(), 4u);
  EXPECT_GE(Classes[0].second.size(), Classes[1].second.size());
  EXPECT_EQ(Classes[0].second.size(), 2u);
  EXPECT_EQ(Classes[3].second.size(), 1u);
}

TEST(HeapModeler, MergedObjectMapIsIdempotent) {
  Modeled M = model(Figure1Src);
  for (uint32_t I = 0; I < M.Result.MOM.size(); ++I)
    EXPECT_EQ(M.Result.MOM[M.Result.MOM[I].idx()], M.Result.MOM[I])
        << "representatives represent themselves";
}

TEST(HeapModeler, MergingRespectsTypes) {
  Modeled M = model(Figure1Src);
  for (uint32_t I = 0; I < M.Result.MOM.size(); ++I)
    EXPECT_EQ(M.P->obj(ObjId(I)).Type, M.P->obj(M.Result.MOM[I]).Type)
        << "an object and its representative always share a type";
}

// --- Property sweeps ---

class HeapModelerPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(HeapModelerPropertyTest, PartitionIndexMatchesPlainScan) {
  workload::WorkloadSpec Spec;
  Spec.Seed = GetParam();
  Spec.Modules = 3 + GetParam() % 4;
  Spec.MixedPerMille = 150;
  Spec.ElemChainPerMille = 500;
  auto P = workload::buildSyntheticProgram(Spec);
  ClassHierarchy CH(*P);
  pta::AnalysisOptions PreOpts;
  auto Pre = pta::runPointerAnalysis(*P, CH, PreOpts);
  FieldPointsToGraph G(*Pre);

  for (bool EnforceC2 : {true, false})
    for (ReprPolicy Repr : {ReprPolicy::FirstSite, ReprPolicy::LastSite}) {
      uint32_t WantClasses = 0;
      std::vector<ObjId> Want = pairwiseScan(G, EnforceC2, Repr, WantClasses);
      DFACache Cache(G);
      HeapModelerOptions Opts;
      Opts.EnforceCondition2 = EnforceC2;
      Opts.Repr = Repr;
      HeapModelerResult Got = modelHeap(G, Cache, Opts);
      ASSERT_EQ(Got.MOM, Want) << "seed " << GetParam() << ", condition 2 "
                               << EnforceC2 << ", last-site "
                               << (Repr == ReprPolicy::LastSite);
      EXPECT_EQ(Got.NumClasses, WantClasses);
      EXPECT_EQ(Got.PairsTested, 0u);
    }
}

TEST_P(HeapModelerPropertyTest, AgreesWithDefinition21OnRandomGraphs) {
  std::mt19937 Rng(GetParam() * 27644437 + 3);
  GraphSpec G;
  G.NumTypes = 1 + Rng() % 3;
  G.NumFields = 1 + Rng() % 2;
  unsigned N = 6 + Rng() % 8;
  for (unsigned I = 0; I < N; ++I)
    G.TypeOf.push_back(Rng() % G.NumTypes);
  for (unsigned I = 0; I < N; ++I) // acyclic: exact reference
    for (unsigned F = 0; F < G.NumFields; ++F)
      if (Rng() % 2 == 0 && I + 1 < N)
        G.Edges.push_back(
            {I, F, I + 1 + static_cast<unsigned>(Rng() % (N - I - 1))});
  auto P = buildGraphProgram(G);
  ClassHierarchy CH(*P);
  pta::AnalysisOptions PreOpts;
  auto Pre = pta::runPointerAnalysis(*P, CH, PreOpts);
  FieldPointsToGraph FPG(*Pre);
  DFACache Cache(FPG);
  HeapModelerResult R = modelHeap(FPG, Cache);
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = I + 1; J < N; ++J) {
      bool Merged = R.MOM[graphObj(I).idx()] == R.MOM[graphObj(J).idx()];
      bool Want = G.TypeOf[I] == G.TypeOf[J] &&
                  refTypeConsistent(FPG, graphObj(I), graphObj(J), N + 3);
      ASSERT_EQ(Merged, Want)
          << "objects " << I << "," << J << " (seed " << GetParam() << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapModelerPropertyTest,
                         ::testing::Range(1u, 11u));
