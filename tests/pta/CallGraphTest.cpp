//===-- tests/pta/CallGraphTest.cpp ------------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pta/CallGraph.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace mahjong;
using namespace mahjong::pta;
using namespace mahjong::test;

TEST(CallGraph, DeduplicatesCSAndCIEdges) {
  CallGraph CG;
  EXPECT_TRUE(CG.addEdge(ContextId(0), CallSiteId(1), CSMethodId(0),
                         MethodId(7)));
  EXPECT_FALSE(CG.addEdge(ContextId(0), CallSiteId(1), CSMethodId(0),
                          MethodId(7)))
      << "exact duplicate";
  EXPECT_TRUE(CG.addEdge(ContextId(3), CallSiteId(1), CSMethodId(1),
                         MethodId(7)))
      << "new cs edge, same ci edge";
  EXPECT_EQ(CG.numCSEdges(), 2u);
  EXPECT_EQ(CG.numCIEdges(), 1u);
  EXPECT_EQ(CG.calleesOf(CallSiteId(1)).size(), 1u);
}

TEST(CallGraph, TracksDistinctTargetsPerSite) {
  CallGraph CG;
  CG.addEdge(ContextId(0), CallSiteId(5), CSMethodId(0), MethodId(1));
  CG.addEdge(ContextId(0), CallSiteId(5), CSMethodId(1), MethodId(2));
  CG.addEdge(ContextId(0), CallSiteId(6), CSMethodId(0), MethodId(1));
  EXPECT_EQ(CG.calleesOf(CallSiteId(5)).size(), 2u);
  EXPECT_EQ(CG.calleesOf(CallSiteId(6)).size(), 1u);
  EXPECT_TRUE(CG.calleesOf(CallSiteId(7)).empty());
  EXPECT_EQ(CG.callSitesWithEdges().size(), 2u);
}

TEST(CallGraph, OnTheFlyDiscoversOnlyRealTargets) {
  auto A = analyze(R"(
    class A { method m() { return this; } }
    class B extends A { method m() { return this; } }
    class C extends A { method m() { return this; } }
    class Main {
      static method main() {
        x = new B;
        y = x;        // y: {B} only — C is allocated but never flows here
        unused = new C;
        y.m();
      }
    }
  )");
  // The virtual site is the only call site; it must resolve to B.m only.
  std::vector<CallSiteId> Sites = A.R->CG.callSitesWithEdges();
  ASSERT_EQ(Sites.size(), 1u);
  const std::vector<MethodId> &Targets = A.R->CG.calleesOf(Sites[0]);
  ASSERT_EQ(Targets.size(), 1u);
  EXPECT_EQ(A.P->method(Targets[0]).Signature, "B.m/0");
}

TEST(CallGraph, PolymorphicSiteFindsAllFlowingTypes) {
  auto A = analyze(R"(
    class A { method m() { return this; } }
    class B extends A { method m() { return this; } }
    class C extends A { method m() { return this; } }
    class Main {
      static method main() {
        x = new B;
        x = new C;
        x.m();
      }
    }
  )");
  std::vector<CallSiteId> Sites = A.R->CG.callSitesWithEdges();
  ASSERT_EQ(Sites.size(), 1u);
  EXPECT_EQ(A.R->CG.calleesOf(Sites[0]).size(), 2u);
}

TEST(CallGraph, ReachabilityIsTransitive) {
  auto A = analyze(R"(
    class Main {
      static method main() { Main::a(); }
      static method a() { Main::b(); }
      static method b() { }
      static method island() { Main::b(); }
    }
  )");
  auto Reach = [&](const char *Sig) {
    return A.R->ReachableMethod[A.P->methodBySignature(Sig).idx()];
  };
  EXPECT_TRUE(Reach("Main.main/0"));
  EXPECT_TRUE(Reach("Main.a/0"));
  EXPECT_TRUE(Reach("Main.b/0"));
  EXPECT_FALSE(Reach("Main.island/0"));
}
