//===-- tests/core/DFACacheTest.cpp ------------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Subset construction (Algorithm 3) on the shared cache: determinism,
// sinks, sharing across roots, SINGLETYPE-CHECK (as decided by
// DFAPartition over the closed cache), the adjacency-class work bound,
// and agreement with a reference construction.
//
//===----------------------------------------------------------------------===//

#include "core/DFACache.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
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

FieldId field(const Built &B, unsigned T, unsigned F) {
  return B.P->findField(B.P->typeByName("T" + std::to_string(T)),
                        "f" + std::to_string(F));
}

} // namespace

TEST(DFACache, ErrorStateIsStateZeroWithEmptyOutput) {
  GraphSpec G;
  G.NumTypes = 1;
  G.NumFields = 1;
  G.TypeOf = {0};
  Built B = buildGraph(G);
  EXPECT_EQ(DFACache::errorState().idx(), 0u);
  EXPECT_TRUE(B.Cache->outputs(DFACache::errorState()).empty());
}

TEST(DFACache, NondeterminismCollapsesIntoSetStates) {
  // o0 --f0--> {o1, o2}: the DFA state after f0 is the two-object set.
  GraphSpec G;
  G.NumTypes = 2;
  G.NumFields = 1;
  G.TypeOf = {0, 1, 1};
  G.Edges = {{0, 0, 1}, {0, 0, 2}};
  Built B = buildGraph(G);
  DFAStateId S0 = B.Cache->startFor(graphObj(0));
  DFAStateId S1 = B.Cache->next(S0, field(B, 0, 0));
  EXPECT_EQ(B.Cache->members(S1),
            (std::vector<ObjId>{graphObj(1), graphObj(2)}));
  ASSERT_EQ(B.Cache->outputs(S1).size(), 1u) << "both members are T1";
}

TEST(DFACache, MissingFieldGoesToError) {
  GraphSpec G;
  G.NumTypes = 2;
  G.NumFields = 2;
  G.TypeOf = {0, 1};
  G.Edges = {{0, 0, 1}};
  Built B = buildGraph(G);
  DFAStateId S0 = B.Cache->startFor(graphObj(0));
  DFAStateId S1 = B.Cache->next(S0, field(B, 0, 0)); // {o1, ...}
  // Probe a field id from another class that o1's set lacks entirely:
  // if the state contains o_null (via completion) we land on the null
  // sink, otherwise on q_error — never anywhere else.
  DFAStateId Sink = B.Cache->next(S1, FieldId(B.P->numFields() - 1));
  DFAStateId Again = B.Cache->next(S1, FieldId(B.P->numFields() - 1));
  EXPECT_EQ(Sink, Again) << "deterministic";
}

TEST(DFACache, NullStateSelfLoops) {
  GraphSpec G;
  G.NumTypes = 1;
  G.NumFields = 1;
  G.TypeOf = {0}; // field f0 unwritten -> completes to null
  Built B = buildGraph(G);
  DFAStateId S0 = B.Cache->startFor(graphObj(0));
  DFAStateId Null = B.Cache->next(S0, field(B, 0, 0));
  ASSERT_EQ(B.Cache->members(Null),
            (std::vector<ObjId>{Program::nullObj()}));
  EXPECT_EQ(B.Cache->next(Null, field(B, 0, 0)), Null)
      << "null self-loop on every field (paper §4.1)";
  EXPECT_EQ(B.Cache->next(Null, FieldId(0)), Null);
}

TEST(DFACache, StatesAreSharedAcrossRoots) {
  // Two roots reaching the same suffix object: one shared state.
  GraphSpec G;
  G.NumTypes = 2;
  G.NumFields = 1;
  G.TypeOf = {0, 0, 1};
  G.Edges = {{0, 0, 2}, {1, 0, 2}};
  Built B = buildGraph(G);
  DFAStateId A = B.Cache->startFor(graphObj(0));
  DFAStateId C = B.Cache->startFor(graphObj(1));
  DFAStateId SuffixA = B.Cache->next(A, field(B, 0, 0));
  DFAStateId SuffixC = B.Cache->next(C, field(B, 0, 0));
  EXPECT_EQ(SuffixA, SuffixC) << "shared sequential automata (paper §5)";
}

TEST(DFACache, SingleTypeCheckAcceptsHomogeneousPaths) {
  GraphSpec G; // Figure 2-like, every path single-typed
  G.NumTypes = 3;
  G.NumFields = 2;
  G.TypeOf = {0, 1, 1, 2};
  G.Edges = {{0, 0, 1}, {0, 0, 2}, {1, 1, 3}, {2, 1, 3}};
  Built B = buildGraph(G);
  EXPECT_TRUE(partitionSingleType(*B.Cache, graphObj(0)));
}

TEST(DFACache, SingleTypeCheckRejectsMixedTypePaths) {
  // o0.f0 reaches a T1 and a T2 object: Condition 2 violated (Fig. 3).
  GraphSpec G;
  G.NumTypes = 3;
  G.NumFields = 1;
  G.TypeOf = {0, 1, 2};
  G.Edges = {{0, 0, 1}, {0, 0, 2}};
  Built B = buildGraph(G);
  EXPECT_FALSE(partitionSingleType(*B.Cache, graphObj(0)));
}

TEST(DFACache, SingleTypeCheckRejectsObjectMixedWithNull) {
  // o0.f0 may be o1 or null (explicit null store): outputs {T1, null}.
  auto P = parseOrDie(R"(
    class A { field f: B; }
    class B { }
    class Main {
      static method main() {
        a = new A;
        b = new B;
        n = null;
        a.f = b;
        a.f = n;
      }
    }
  )");
  ClassHierarchy CH(*P);
  pta::AnalysisOptions Opts;
  auto R = pta::runPointerAnalysis(*P, CH, Opts);
  FieldPointsToGraph G(*R);
  DFACache Cache(G);
  EXPECT_FALSE(partitionSingleType(Cache, ObjId(1)));
}

TEST(DFACache, CyclesProduceFinitelyManyStates) {
  GraphSpec G;
  G.NumTypes = 1;
  G.NumFields = 1;
  G.TypeOf = {0, 0, 0};
  G.Edges = {{0, 0, 1}, {1, 0, 2}, {2, 0, 0}}; // 3-cycle
  Built B = buildGraph(G);
  EXPECT_TRUE(partitionSingleType(*B.Cache, graphObj(0)));
  EXPECT_LE(B.Cache->numStates(), 8u);
}

TEST(DFACache, OneAdjacencyClassIsScannedOncePerState) {
  // 1,000 T1 objects with the same single edge f0 -> leaf form one
  // adjacency class; the root's f0 successor is the state of all of
  // them. Expanding that state must read the class's one-entry list
  // once, not once per member.
  GraphSpec G;
  G.NumTypes = 3;
  G.NumFields = 1;
  const unsigned Members = 1000, Leaf = Members + 1;
  G.TypeOf.push_back(0); // the root
  for (unsigned I = 0; I < Members; ++I)
    G.TypeOf.push_back(1);
  G.TypeOf.push_back(2); // the leaf
  for (unsigned I = 1; I <= Members; ++I) {
    G.Edges.push_back({0, 0, I});
    G.Edges.push_back({I, 0, Leaf});
  }
  Built B = buildGraph(G);
  uint32_t Class = B.G->adjClassOf(graphObj(1));
  for (unsigned I = 1; I <= Members; ++I)
    ASSERT_EQ(B.G->adjClassOf(graphObj(I)), Class);
  ASSERT_EQ(B.G->classFields(Class).size(), 1u);
  ASSERT_EQ(B.G->classFields(Class)[0].second.size(), 1u);

  DFAStateId All = B.Cache->next(B.Cache->startFor(graphObj(0)),
                                 field(B, 0, 0));
  ASSERT_EQ(B.Cache->members(All).size(), Members);
  uint64_t Before = B.Cache->successorsScanned();
  DFAStateId Next = B.Cache->next(All, field(B, 1, 0));
  EXPECT_EQ(B.Cache->successorsScanned() - Before, 1u)
      << "one list entry for the whole class";
  EXPECT_EQ(B.Cache->members(Next), (std::vector<ObjId>{graphObj(Leaf)}));
}

namespace {

using ObjSet = std::vector<ObjId>;

/// Reference subset construction (Algorithm 3), computed from the FPG
/// alone: the alphabet of a state is the union of its members' fields,
/// and its successor on f the union of succ(o, f) over every member,
/// sorted and deduplicated.
std::map<FieldId, ObjSet> refTransitions(const FieldPointsToGraph &G,
                                         const ObjSet &Members) {
  std::map<FieldId, ObjSet> Result;
  for (ObjId O : Members)
    for (const auto &Entry : G.fieldsOf(O))
      Result[Entry.first];
  for (auto &[F, Next] : Result) {
    for (ObjId O : Members)
      for (ObjId T : G.succ(O, F))
        Next.push_back(T);
    std::sort(Next.begin(), Next.end());
    Next.erase(std::unique(Next.begin(), Next.end()), Next.end());
  }
  return Result;
}

/// A random graph plus three fixed gadgets: two objects of different
/// types with identical adjacency lists, a fan-out into three objects of
/// one adjacency class, and a fan-out whose successor mixes o_null with
/// an object.
GraphSpec randomGadgetGraph(unsigned Seed) {
  std::mt19937 Rng(Seed * 7919 + 11);
  GraphSpec G;
  G.NumTypes = 4;
  G.NumFields = 1 + Rng() % 3;
  G.SuperOf = {-1, 0, 0, -1}; // T1 and T2 inherit T0's fields
  unsigned N = 10 + Rng() % 12;
  for (unsigned I = 0; I < N; ++I)
    G.TypeOf.push_back(Rng() % G.NumTypes);
  for (unsigned E = 0, M = N + Rng() % (2 * N); E < M; ++E) // cycles allowed
    G.Edges.push_back({static_cast<unsigned>(Rng() % N),
                       static_cast<unsigned>(Rng() % G.NumFields),
                       static_cast<unsigned>(Rng() % N)});
  auto Add = [&G](unsigned Type) {
    G.TypeOf.push_back(Type);
    return static_cast<unsigned>(G.TypeOf.size() - 1);
  };
  // Twins: a T1 and a T2 object, both storing f0 -> node 0.
  unsigned Twin1 = Add(1), Twin2 = Add(2);
  G.Edges.push_back({Twin1, 0, 0});
  G.Edges.push_back({Twin2, 0, 0});
  // Fan: a T3 root whose f0 holds three T3 objects that all store f0 ->
  // node 1.
  unsigned Fan = Add(3);
  for (int I = 0; I < 3; ++I) {
    unsigned Leaf = Add(3);
    G.Edges.push_back({Fan, 0, Leaf});
    G.Edges.push_back({Leaf, 0, 1});
  }
  // Null mix: f0 of {A, B} is {o_null, node 2} (A's f0 is never written).
  unsigned Mix = Add(3), A = Add(0), B = Add(0);
  G.Edges.push_back({Mix, 0, A});
  G.Edges.push_back({Mix, 0, B});
  G.Edges.push_back({B, 0, 2});
  return G;
}

} // namespace

class DFACachePropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DFACachePropertyTest, MatchesReferenceSubsetConstruction) {
  GraphSpec Spec = randomGadgetGraph(GetParam());
  Built B = buildGraph(Spec);
  const FieldPointsToGraph &G = *B.G;
  const unsigned N = Spec.TypeOf.size();
  for (unsigned I = 0; I < N; ++I)
    B.Cache->startFor(graphObj(I));
  B.Cache->expandAll();

  // The cache's states by member set; interning makes them unique.
  std::map<ObjSet, DFAStateId> StateOf;
  for (uint32_t S = 0; S < B.Cache->numStates(); ++S)
    ASSERT_TRUE(StateOf.emplace(B.Cache->members(DFAStateId(S)),
                                DFAStateId(S))
                    .second)
        << "state " << S << " interned twice";

  // Explore the reference automaton from every root and compare each
  // state's transitions and outputs with the cache's.
  std::set<ObjSet> Seen{{}, {Program::nullObj()}}; // pre-interned sinks
  std::vector<ObjSet> Work;
  for (unsigned I = 0; I < N; ++I)
    if (Seen.insert({graphObj(I)}).second)
      Work.push_back({graphObj(I)});
  bool SawNullMix = false, SawOneClassState = false;
  while (!Work.empty()) {
    ObjSet Members = std::move(Work.back());
    Work.pop_back();
    auto It = StateOf.find(Members);
    ASSERT_NE(It, StateOf.end()) << "reference state missing from cache";
    DFAStateId S = It->second;

    std::vector<TypeId> Types;
    std::set<uint32_t> Classes;
    for (ObjId O : Members) {
      Types.push_back(B.P->obj(O).Type);
      Classes.insert(G.adjClassOf(O));
    }
    std::sort(Types.begin(), Types.end());
    Types.erase(std::unique(Types.begin(), Types.end()), Types.end());
    EXPECT_EQ(B.Cache->outputs(S), Types);
    SawNullMix |= Members.size() > 1 && Members.front() == Program::nullObj();
    SawOneClassState |= Members.size() > 1 && Classes.size() == 1;

    std::map<FieldId, ObjSet> Want = refTransitions(G, Members);
    const auto &Got = B.Cache->transitions(S);
    ASSERT_EQ(Got.size(), Want.size());
    size_t K = 0;
    for (const auto &[F, Next] : Want) {
      EXPECT_EQ(Got[K].first, F);
      EXPECT_EQ(B.Cache->members(Got[K].second), Next) << "field " << F.idx();
      ++K;
      if (Seen.insert(Next).second)
        Work.push_back(Next);
    }
  }
  EXPECT_EQ(Seen.size(), StateOf.size())
      << "the cache holds exactly the reference's states";

  // The gadgets' coverage: different-type objects sharing a class, a
  // state of one class, and o_null mixed with objects.
  unsigned Twin1 = Spec.TypeOf.size() - 9, Twin2 = Twin1 + 1;
  EXPECT_EQ(G.adjClassOf(graphObj(Twin1)), G.adjClassOf(graphObj(Twin2)));
  EXPECT_NE(B.P->obj(graphObj(Twin1)).Type, B.P->obj(graphObj(Twin2)).Type);
  EXPECT_TRUE(SawOneClassState);
  EXPECT_TRUE(SawNullMix);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DFACachePropertyTest,
                         ::testing::Range(1u, 21u));
