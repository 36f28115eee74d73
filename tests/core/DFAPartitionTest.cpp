//===-- tests/core/DFAPartitionTest.cpp --------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The global behavioral partition must agree exactly with the pairwise
// Hopcroft-Karp checker, and its condition-2 verdicts with a per-root
// search — on hand-written shapes and random graphs.
//
//===----------------------------------------------------------------------===//

#include "core/DFAPartition.h"

#include "../TestUtil.h"
#include "core/EquivChecker.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

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

} // namespace

TEST(DFAPartition, GroupsEquivalentChainTails) {
  GraphSpec G;
  G.NumTypes = 1;
  G.NumFields = 1;
  G.TypeOf = {0, 0, 0, 0, 0};
  G.Edges = {{0, 0, 1}, {2, 0, 3}, {3, 0, 4}};
  Built B = buildGraph(G);
  for (unsigned I = 0; I < 5; ++I)
    B.Cache->startFor(graphObj(I));
  B.Cache->expandAll();
  DFAPartition Part(*B.Cache);
  auto Blk = [&](unsigned I) {
    return Part.blockOf(B.Cache->startFor(graphObj(I)));
  };
  EXPECT_EQ(Blk(1), Blk(4)) << "both tails: T0 with a null field";
  EXPECT_EQ(Blk(0), Blk(3)) << "both: one hop to a tail";
  EXPECT_NE(Blk(0), Blk(1));
  EXPECT_NE(Blk(2), Blk(0)) << "head of the longer chain is distinct";
}

TEST(DFAPartition, SeparatesByOutputImmediately) {
  GraphSpec G;
  G.NumTypes = 2;
  G.NumFields = 0;
  G.TypeOf = {0, 1, 0};
  Built B = buildGraph(G);
  for (unsigned I = 0; I < 3; ++I)
    B.Cache->startFor(graphObj(I));
  B.Cache->expandAll();
  DFAPartition Part(*B.Cache);
  EXPECT_EQ(Part.blockOf(B.Cache->startFor(graphObj(0))),
            Part.blockOf(B.Cache->startFor(graphObj(2))));
  EXPECT_NE(Part.blockOf(B.Cache->startFor(graphObj(0))),
            Part.blockOf(B.Cache->startFor(graphObj(1))));
  EXPECT_GE(Part.numBlocks(), 2u);
}

TEST(DFAPartition, HandlesCyclesLikeHopcroftKarp) {
  GraphSpec G;
  G.NumTypes = 1;
  G.NumFields = 1;
  G.TypeOf = {0, 0, 0, 0};
  G.Edges = {{0, 0, 0},             // self-loop
             {1, 0, 2}, {2, 0, 1},  // 2-cycle
             /* node 3: null field */};
  Built B = buildGraph(G);
  for (unsigned I = 0; I < 4; ++I)
    B.Cache->startFor(graphObj(I));
  B.Cache->expandAll();
  DFAPartition Part(*B.Cache);
  auto Blk = [&](unsigned I) {
    return Part.blockOf(B.Cache->startFor(graphObj(I)));
  };
  EXPECT_EQ(Blk(0), Blk(1)) << "loop === cycle";
  EXPECT_NE(Blk(0), Blk(3));
}

class DFAPartitionPropertyTest : public ::testing::TestWithParam<unsigned> {
};

TEST_P(DFAPartitionPropertyTest, AgreesWithHopcroftKarpOnRandomGraphs) {
  std::mt19937 Rng(GetParam() * 31337 + 5);
  GraphSpec G;
  G.NumTypes = 1 + Rng() % 3;
  G.NumFields = 1 + Rng() % 3;
  unsigned N = 8 + Rng() % 10;
  for (unsigned I = 0; I < N; ++I)
    G.TypeOf.push_back(Rng() % G.NumTypes);
  for (unsigned E = 0, M = 6 + Rng() % 20; E < M; ++E) // cycles allowed
    G.Edges.push_back({static_cast<unsigned>(Rng() % N),
                       static_cast<unsigned>(Rng() % G.NumFields),
                       static_cast<unsigned>(Rng() % N)});
  Built B = buildGraph(G);
  for (unsigned I = 0; I < N; ++I)
    B.Cache->startFor(graphObj(I));
  B.Cache->expandAll();
  DFAPartition Part(*B.Cache);
  EquivChecker Checker(*B.Cache);
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = 0; J < N; ++J) {
      DFAStateId SI = B.Cache->startFor(graphObj(I));
      DFAStateId SJ = B.Cache->startFor(graphObj(J));
      ASSERT_EQ(Part.blockOf(SI) == Part.blockOf(SJ),
                Checker.equivalent(SI, SJ))
          << "objects " << I << "," << J << " (seed " << GetParam() << ")";
    }
}

TEST_P(DFAPartitionPropertyTest, SingleTypeMatchesPerRootSearch) {
  std::mt19937 Rng(GetParam() * 2654435761u + 17);
  GraphSpec G;
  G.NumTypes = 4;
  G.NumFields = 1 + Rng() % 3;
  G.SuperOf = {-1, 0, 0, -1}; // T1 and T2 inherit T0's fields
  unsigned N = 10 + Rng() % 12;
  for (unsigned I = 0; I < N; ++I)
    G.TypeOf.push_back(Rng() % G.NumTypes);
  // Sparse edges, cycles allowed: most fields stay null, so states mix
  // o_null with objects.
  for (unsigned E = 0, M = N / 2 + Rng() % N; E < M; ++E)
    G.Edges.push_back({static_cast<unsigned>(Rng() % N),
                       static_cast<unsigned>(Rng() % G.NumFields),
                       static_cast<unsigned>(Rng() % N)});
  auto Add = [&G](unsigned Type) {
    G.TypeOf.push_back(Type);
    return static_cast<unsigned>(G.TypeOf.size() - 1);
  };
  // Twins of different types with one adjacency list (f0 -> node 0),
  // both held by one root's f0: a successor that outputs {T1, T2}.
  unsigned Root = Add(3), Twin1 = Add(1), Twin2 = Add(2);
  G.Edges.push_back({Twin1, 0, 0});
  G.Edges.push_back({Twin2, 0, 0});
  G.Edges.push_back({Root, 0, Twin1});
  G.Edges.push_back({Root, 0, Twin2});
  // Something points at the root, so the violation propagates backward.
  G.Edges.push_back({static_cast<unsigned>(Rng() % N), 0, Root});
  // Null mix: f0 of {A, C} is {o_null, node 2} (A's f0 is never written).
  unsigned Mix = Add(3), A = Add(0), C = Add(0);
  G.Edges.push_back({Mix, 0, A});
  G.Edges.push_back({Mix, 0, C});
  G.Edges.push_back({C, 0, 2});
  Built B = buildGraph(G);
  for (unsigned I = 0; I < G.TypeOf.size(); ++I)
    B.Cache->startFor(graphObj(I));
  B.Cache->expandAll();
  ASSERT_EQ(B.G->adjClassOf(graphObj(Twin1)),
            B.G->adjClassOf(graphObj(Twin2)));

  DFAPartition Part(*B.Cache);
  unsigned Single = 0, Mixed = 0, NullMixed = 0;
  for (uint32_t I = 0; I < B.Cache->numStates(); ++I) {
    DFAStateId S(I);
    bool Want = refSingleType(*B.Cache, S);
    ASSERT_EQ(Part.singleType(S), Want)
        << "state " << I << " (seed " << GetParam() << ")";
    ++(Want ? Single : Mixed);
    std::vector<ObjId> Members = B.Cache->members(S);
    NullMixed += Members.size() > 1 && Members.front() == Program::nullObj();
  }
  EXPECT_FALSE(Part.singleType(B.Cache->startFor(graphObj(Root))));
  EXPECT_FALSE(Part.singleType(B.Cache->startFor(graphObj(Mix))));
  EXPECT_GT(Single, 0u);
  EXPECT_GT(Mixed, 1u) << "beyond q_error";
  EXPECT_GT(NullMixed, 0u) << "some state mixes o_null with objects";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DFAPartitionPropertyTest,
                         ::testing::Range(1u, 21u));

TEST(DFAPartition, LongChainsSplitLinkByLink) {
  // Two 500-link chains of one type: position i of one chain is
  // equivalent to position i of the other and to nothing else. Each
  // Moore round tells only one more position apart, so this shape needs
  // about 500 rounds there; the worklist refinement does it in one pass.
  GraphSpec G;
  G.NumTypes = 1;
  G.NumFields = 1;
  const unsigned Len = 500;
  G.TypeOf.assign(2 * Len, 0);
  for (unsigned C = 0; C < 2; ++C)
    for (unsigned I = 0; I + 1 < Len; ++I)
      G.Edges.push_back({C * Len + I, 0, C * Len + I + 1});
  Built B = buildGraph(G);
  for (unsigned I = 0; I < 2 * Len; ++I)
    B.Cache->startFor(graphObj(I));
  B.Cache->expandAll();
  DFAPartition Part(*B.Cache);
  auto Blk = [&](unsigned I) {
    return Part.blockOf(B.Cache->startFor(graphObj(I)));
  };
  std::set<uint32_t> Seen;
  for (unsigned I = 0; I < Len; ++I) {
    ASSERT_EQ(Blk(I), Blk(Len + I)) << "position " << I;
    Seen.insert(Blk(I));
  }
  EXPECT_EQ(Seen.size(), Len) << "every chain position is its own class";
  EquivChecker Checker(*B.Cache);
  for (unsigned I : {0u, 1u, 250u, 498u, 499u})
    for (unsigned J : {0u, 1u, 250u, 498u, 499u})
      EXPECT_EQ(Checker.equivalent(B.Cache->startFor(graphObj(I)),
                                   B.Cache->startFor(graphObj(Len + J))),
                I == J)
          << I << " vs " << J;
}

TEST(DFAPartition, MissingFieldEqualsExplicitEdgeToDefaultSink) {
  // b1 has an (undeclared) field f holding null, b2 has no field at all.
  // X = {null, b1} steps on f to {null} explicitly, Y = {null, b2} lacks
  // f and falls to its default sink, which is the same {null} state.
  auto P = parseOrDie(R"(
    class A { field f: Object; }
    class B { }
    class R { field g: Object; }
    class Main {
      static method main() {
        b1 = new B;
        b2 = new B;
        n = null;
        b1.A::f = n;
        r1 = new R;
        r2 = new R;
        r1.g = b1;
        r1.g = n;
        r2.g = b2;
        r2.g = n;
      }
    }
  )");
  ClassHierarchy CH(*P);
  pta::AnalysisOptions Opts;
  auto R = pta::runPointerAnalysis(*P, CH, Opts);
  FieldPointsToGraph G(*R);
  DFACache Cache(G);
  const ObjId R1(3), R2(4);
  for (uint32_t I = 1; I <= 4; ++I)
    Cache.startFor(ObjId(I));
  Cache.expandAll();
  FieldId GField = P->findField(P->typeByName("R"), "g");
  DFAStateId X = Cache.next(Cache.startFor(R1), GField);
  DFAStateId Y = Cache.next(Cache.startFor(R2), GField);
  ASSERT_NE(X, Y);
  ASSERT_EQ(Cache.transitions(X).size(), 1u) << "X has the explicit f edge";
  EXPECT_EQ(Cache.transitions(X)[0].second, Cache.defaultSink(X));
  EXPECT_TRUE(Cache.transitions(Y).empty()) << "Y lacks f";
  EXPECT_EQ(Cache.defaultSink(X), Cache.defaultSink(Y));

  DFAPartition Part(Cache);
  EXPECT_EQ(Part.blockOf(X), Part.blockOf(Y));
  EXPECT_EQ(Part.blockOf(Cache.startFor(R1)), Part.blockOf(Cache.startFor(R2)));
  EXPECT_NE(Part.blockOf(Cache.startFor(ObjId(1))),
            Part.blockOf(Cache.startFor(ObjId(2))))
      << "b1.f reaches {null}, b2.f reaches q_error";
  EquivChecker Checker(Cache);
  EXPECT_TRUE(Checker.equivalent(X, Y));
  EXPECT_TRUE(Checker.equivalent(Cache.startFor(R1), Cache.startFor(R2)));
}
