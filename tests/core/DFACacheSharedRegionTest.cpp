//===-- tests/core/DFACacheSharedRegionTest.cpp -------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Quantitative checks of the shared-automata optimization (paper §5):
// the global state count must grow with the distinct suffix structure,
// not with the number of roots.
//
//===----------------------------------------------------------------------===//

#include "core/DFACache.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

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

TEST(DFACacheSharing, ManyRootsOneSharedSuffix) {
  // 50 roots all pointing at the same leaf: expanding every root
  // adds one start state each, but the suffix exists once.
  GraphSpec G;
  G.NumTypes = 2;
  G.NumFields = 1;
  const unsigned Roots = 50;
  for (unsigned I = 0; I < Roots; ++I)
    G.TypeOf.push_back(0);
  G.TypeOf.push_back(1); // the shared leaf
  for (unsigned I = 0; I < Roots; ++I)
    G.Edges.push_back({I, 0, Roots});
  Built B = buildGraph(G);
  for (unsigned I = 0; I < Roots; ++I)
    B.Cache->startFor(graphObj(I));
  B.Cache->expandAll();
  // States: error + {null} + 50 singleton roots + {leaf} (+ nothing
  // else: the leaf's f0-null successor IS the null state).
  EXPECT_LE(B.Cache->numStates(), Roots + 4u);
}

TEST(DFACacheSharing, ChainSuffixesAreReused) {
  // One long chain: expanding from every position must reuse all
  // downstream states — total states linear, not quadratic.
  GraphSpec G;
  G.NumTypes = 1;
  G.NumFields = 1;
  const unsigned N = 60;
  for (unsigned I = 0; I < N; ++I)
    G.TypeOf.push_back(0);
  for (unsigned I = 0; I + 1 < N; ++I)
    G.Edges.push_back({I, 0, I + 1});
  Built B = buildGraph(G);
  for (unsigned I = 0; I < N; ++I)
    B.Cache->startFor(graphObj(I));
  B.Cache->expandAll();
  EXPECT_LE(B.Cache->numStates(), N + 4u)
      << "per-root determinization would need O(N^2) states";
}

TEST(DFACacheSharing, DiamondSharesJoinPoint) {
  // Two roots reaching a diamond that reconverges: the join state is
  // created once.
  GraphSpec G;
  G.NumTypes = 3;
  G.NumFields = 2;
  G.TypeOf = {0, 0, 1, 1, 2};
  G.Edges = {{0, 0, 2}, {0, 1, 3}, {1, 0, 2}, {1, 1, 3},
             {2, 0, 4}, {3, 0, 4}};
  Built B = buildGraph(G);
  B.Cache->startFor(graphObj(0));
  B.Cache->expandAll();
  uint32_t After0 = B.Cache->numStates();
  B.Cache->startFor(graphObj(1));
  B.Cache->expandAll();
  EXPECT_EQ(B.Cache->numStates(), After0 + 1)
      << "the second root adds only its own start state";
}
