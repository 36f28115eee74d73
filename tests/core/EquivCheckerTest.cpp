//===-- tests/core/EquivCheckerTest.cpp --------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The Hopcroft-Karp equivalence checker (Algorithm 4): the paper's
// running examples, cycle handling, and a property sweep certifying it
// against the bounded reference implementation of Definition 2.1.
//
//===----------------------------------------------------------------------===//

#include "core/EquivChecker.h"

#include "../TestUtil.h"
#include "core/DFAPartition.h"

#include <gtest/gtest.h>

#include <random>

using namespace mahjong;
using namespace mahjong::core;
using namespace mahjong::ir;
using namespace mahjong::test;

namespace {

struct Built {
  std::unique_ptr<Program> P;
  std::unique_ptr<ClassHierarchy> CH;
  std::unique_ptr<pta::PTAResult> R;
  std::unique_ptr<FieldPointsToGraph> G;
  std::unique_ptr<DFACache> Cache;
};

Built buildGraph(const GraphSpec &Spec) {
  Built B;
  B.P = buildGraphProgram(Spec);
  B.CH = std::make_unique<ClassHierarchy>(*B.P);
  pta::AnalysisOptions Opts;
  B.R = pta::runPointerAnalysis(*B.P, *B.CH, Opts);
  B.G = std::make_unique<FieldPointsToGraph>(*B.R);
  B.Cache = std::make_unique<DFACache>(*B.G);
  return B;
}

bool equiv(Built &B, unsigned NodeA, unsigned NodeB) {
  EquivChecker Checker(*B.Cache);
  return Checker.equivalent(B.Cache->startFor(graphObj(NodeA)),
                            B.Cache->startFor(graphObj(NodeB)));
}

} // namespace

TEST(EquivChecker, Figure2AutomataAreEquivalent) {
  // The paper's Figure 2: two T-rooted automata with the same typed
  // behavior but different shapes (left has two Y objects and
  // nondeterminism on f, right is a diamond).
  // Types: T=0, U=1, X=2, Y=3. Fields: f=0, g=1, h=2, k=3.
  GraphSpec G;
  G.NumTypes = 4;
  G.NumFields = 4;
  //        o1.T  o3.U  o5.X  o7.Y  o9.Y  o11.Y   (left, paper numbering)
  // nodes: 0     1     2     3     4     5
  //        o2.T  o4.U  o6.X  o8.Y                (right)
  // nodes: 6     7     8     9
  G.TypeOf = {0, 1, 2, 3, 3, 3, 0, 1, 2, 3};
  G.Edges = {
      // left: o1 -f-> o3, o1 -g-> o5, o3 -h-> o7, o3 -h-> o9, o5 -k-> o11
      {0, 0, 1}, {0, 1, 2}, {1, 2, 3}, {1, 2, 4}, {2, 3, 5},
      // right: o2 -f-> o4, o2 -g-> o6, o4 -h-> o8, o6 -k-> o8
      {6, 0, 7}, {6, 1, 8}, {7, 2, 9}, {8, 3, 9},
  };
  Built B = buildGraph(G);
  EXPECT_TRUE(partitionSingleType(*B.Cache, graphObj(0)));
  EXPECT_TRUE(partitionSingleType(*B.Cache, graphObj(6)));
  EXPECT_TRUE(equiv(B, 0, 6)) << "the paper's Example 2.6";
}

TEST(EquivChecker, DifferentFieldTypeBreaksEquivalence) {
  // Figure 1: o2 and o3 store a C, o1 stores a B.
  // Types: A=0, B=1, C=2; field f=0.
  GraphSpec G;
  G.NumTypes = 3;
  G.NumFields = 1;
  G.TypeOf = {0, 0, 0, 1, 2, 2}; // o1,o2,o3 : A; o4: B; o5,o6: C
  G.Edges = {{0, 0, 3}, {1, 0, 4}, {2, 0, 5}};
  Built B = buildGraph(G);
  EXPECT_TRUE(equiv(B, 1, 2)) << "o2 === o3 (both reach a C)";
  EXPECT_FALSE(equiv(B, 0, 1)) << "o1 reaches a B instead";
  EXPECT_FALSE(equiv(B, 0, 2));
}

TEST(EquivChecker, NullVsStoredFieldDiffer) {
  // One object with a written field, one with the field still null.
  GraphSpec G;
  G.NumTypes = 2;
  G.NumFields = 1;
  G.TypeOf = {0, 0, 1};
  G.Edges = {{0, 0, 2}}; // node 1's f0 stays null
  Built B = buildGraph(G);
  EXPECT_FALSE(equiv(B, 0, 1))
      << "MAHJONG distinguishes null fields (Table 1, ASTPair rows)";
  EXPECT_TRUE(equiv(B, 1, 1));
}

TEST(EquivChecker, AllNullObjectsAreEquivalent) {
  GraphSpec G;
  G.NumTypes = 1;
  G.NumFields = 2;
  G.TypeOf = {0, 0};
  Built B = buildGraph(G); // both objects have only null fields
  EXPECT_TRUE(equiv(B, 0, 1));
}

TEST(EquivChecker, ChainLengthMatters) {
  // f0-chains of length 1 vs 2 over the same type.
  GraphSpec G;
  G.NumTypes = 1;
  G.NumFields = 1;
  G.TypeOf = {0, 0, 0, 0, 0};
  G.Edges = {{0, 0, 1},             // chain A: 0 -> 1 -> null
             {2, 0, 3}, {3, 0, 4}}; // chain B: 2 -> 3 -> 4 -> null
  Built B = buildGraph(G);
  EXPECT_FALSE(equiv(B, 0, 2)) << "depth-2 path: null vs T0";
  EXPECT_TRUE(equiv(B, 1, 4)) << "both tails are a T0 with a null field";
}

TEST(EquivChecker, CyclesVersusUnrolledChainsAreEquivalent) {
  // A self-loop and a 2-cycle of the same type have identical behavior:
  // every f0-path yields T0 forever.
  GraphSpec G;
  G.NumTypes = 1;
  G.NumFields = 1;
  G.TypeOf = {0, 0, 0};
  G.Edges = {{0, 0, 0},            // self-loop
             {1, 0, 2}, {2, 0, 1}}; // 2-cycle
  Built B = buildGraph(G);
  EXPECT_TRUE(equiv(B, 0, 1)) << "Hopcroft-Karp handles cycles";
}

TEST(EquivChecker, CycleVersusFiniteChainDiffer) {
  GraphSpec G;
  G.NumTypes = 1;
  G.NumFields = 1;
  G.TypeOf = {0, 0};
  G.Edges = {{0, 0, 0}, /* node 1: f0 stays null */};
  Built B = buildGraph(G);
  EXPECT_FALSE(equiv(B, 0, 1));
}

TEST(EquivChecker, NondeterministicFanoutSameTypes) {
  // o0 -f-> {a, b} both T1-with-null vs o5 -f-> single T1-with-null:
  // the determinized behaviors coincide.
  GraphSpec G;
  G.NumTypes = 2;
  G.NumFields = 1;
  G.TypeOf = {0, 1, 1, 0, 1};
  G.Edges = {{0, 0, 1}, {0, 0, 2}, {3, 0, 4}};
  Built B = buildGraph(G);
  EXPECT_TRUE(equiv(B, 0, 3));
}

// --- Property sweep: Hopcroft-Karp vs the Definition 2.1 reference. ---

class EquivPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(EquivPropertyTest, MatchesBoundedReferenceOnRandomAcyclicGraphs) {
  std::mt19937 Rng(GetParam() * 7919 + 13);
  // Random acyclic graph: edges only point to higher node indices.
  GraphSpec G;
  G.NumTypes = 1 + Rng() % 3;
  G.NumFields = 1 + Rng() % 3;
  unsigned N = 8 + Rng() % 8;
  for (unsigned I = 0; I < N; ++I)
    G.TypeOf.push_back(Rng() % G.NumTypes);
  for (unsigned I = 0; I < N; ++I)
    for (unsigned F = 0; F < G.NumFields; ++F)
      while (Rng() % 3 == 0 && I + 1 < N)
        G.Edges.push_back(
            {I, F, I + 1 + static_cast<unsigned>(Rng() % (N - I - 1))});
  Built B = buildGraph(G);
  for (unsigned I = 0; I < N; ++I)
    B.Cache->startFor(graphObj(I));
  B.Cache->expandAll();
  DFAPartition Part(*B.Cache);
  EquivChecker Checker(*B.Cache);

  unsigned Depth = N + 3; // exceeds the longest simple path: exact
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = I; J < N; ++J) {
      if (G.TypeOf[I] != G.TypeOf[J])
        continue; // only same-typed objects are candidates
      DFAStateId SI = B.Cache->startFor(graphObj(I));
      DFAStateId SJ = B.Cache->startFor(graphObj(J));
      bool HK = Part.singleType(SI) && Part.singleType(SJ) &&
                Checker.equivalent(SI, SJ);
      bool Ref = refTypeConsistent(*B.G, graphObj(I), graphObj(J), Depth);
      ASSERT_EQ(HK, Ref) << "objects " << I << " and " << J << " (seed "
                         << GetParam() << ")";
    }
}

TEST_P(EquivPropertyTest, IsAnEquivalenceRelationOnRandomGraphs) {
  std::mt19937 Rng(GetParam() * 104729 + 7);
  GraphSpec G;
  G.NumTypes = 2;
  G.NumFields = 2;
  unsigned N = 10;
  for (unsigned I = 0; I < N; ++I)
    G.TypeOf.push_back(Rng() % G.NumTypes);
  for (unsigned E = 0; E < 14; ++E) // cycles allowed
    G.Edges.push_back({static_cast<unsigned>(Rng() % N),
                       static_cast<unsigned>(Rng() % G.NumFields),
                       static_cast<unsigned>(Rng() % N)});
  Built B = buildGraph(G);
  EquivChecker Checker(*B.Cache);
  auto Eq = [&](unsigned I, unsigned J) {
    return Checker.equivalent(B.Cache->startFor(graphObj(I)),
                              B.Cache->startFor(graphObj(J)));
  };
  for (unsigned I = 0; I < N; ++I)
    ASSERT_TRUE(Eq(I, I)) << "reflexive";
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = 0; J < N; ++J)
      ASSERT_EQ(Eq(I, J), Eq(J, I)) << "symmetric " << I << "," << J;
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = 0; J < N; ++J)
      for (unsigned K = 0; K < N; ++K)
        if (Eq(I, J) && Eq(J, K)) {
          ASSERT_TRUE(Eq(I, K)) << "transitive " << I << "," << J << ","
                                << K;
        }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivPropertyTest, ::testing::Range(1u, 15u));
