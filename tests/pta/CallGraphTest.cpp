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
  CSSiteId At0 = CG.csSite(ContextId(0), CallSiteId(1));
  EXPECT_EQ(CG.csSite(ContextId(0), CallSiteId(1)), At0)
      << "a cs call site interns once";
  EXPECT_TRUE(CG.addEdge(At0, CSMethodId(0), MethodId(7)));
  EXPECT_FALSE(CG.addEdge(At0, CSMethodId(0), MethodId(7)))
      << "exact duplicate";
  CSSiteId At3 = CG.csSite(ContextId(3), CallSiteId(1));
  EXPECT_NE(At3, At0);
  EXPECT_TRUE(CG.addEdge(At3, CSMethodId(1), MethodId(7)))
      << "new cs edge, same ci edge";
  EXPECT_EQ(CG.numCSEdges(), 2u);
  EXPECT_EQ(CG.numCIEdges(), 1u);
  EXPECT_EQ(CG.calleesOf(CallSiteId(1)).size(), 1u);
}

TEST(CallGraph, RepeatedCIEdgeUnderManyContextsCountsOnce) {
  // One callee reaches site 2 under several contexts, first back to back
  // and then interleaved with a second callee at the same site.
  CallGraph CG;
  uint32_t NextCSMethod = 0;
  auto Add = [&](uint32_t Ctx, uint32_t Callee) {
    return CG.addEdge(CG.csSite(ContextId(Ctx), CallSiteId(2)),
                      CSMethodId(NextCSMethod++), MethodId(Callee));
  };
  for (uint32_t Ctx = 0; Ctx < 4; ++Ctx)
    EXPECT_TRUE(Add(Ctx, 7)) << "new cs edge under context " << Ctx;
  EXPECT_EQ(CG.numCIEdges(), 1u);
  EXPECT_EQ(CG.calleesOf(CallSiteId(2)), std::vector<MethodId>{MethodId(7)});
  for (uint32_t Ctx = 4; Ctx < 8; ++Ctx) {
    EXPECT_TRUE(Add(Ctx, 9));
    EXPECT_TRUE(Add(Ctx, 7));
  }
  EXPECT_EQ(CG.numCSEdges(), 12u);
  EXPECT_EQ(CG.numCIEdges(), 2u);
  EXPECT_EQ(CG.calleesOf(CallSiteId(2)),
            (std::vector<MethodId>{MethodId(7), MethodId(9)}));
  EXPECT_EQ(CG.callSitesWithEdges(), std::vector<CallSiteId>{CallSiteId(2)});
}

TEST(CallGraph, TracksDistinctTargetsPerSite) {
  CallGraph CG;
  CG.addEdge(CG.csSite(ContextId(0), CallSiteId(5)), CSMethodId(0),
             MethodId(1));
  CG.addEdge(CG.csSite(ContextId(0), CallSiteId(5)), CSMethodId(1),
             MethodId(2));
  CG.addEdge(CG.csSite(ContextId(0), CallSiteId(6)), CSMethodId(0),
             MethodId(1));
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

TEST(CallGraph, SharedCSMethodWiresEveryCaller) {
  // One cs-method, Box.get under [b], is called from two callers under
  // different contexts, UserA.run under [ua] and UserB.run under [ub].
  // The solver fetches the caller-side result and $exc nodes once per
  // receiver delta and the callee-side ones once per cs-method: each
  // caller must still receive the return value and the exception in its
  // own variables.
  const char *Src = R"(
    class Err { }
    class Val { }
    class Box {
      method get() { v = new Val; e = new Err; throw e; return v; }
    }
    class UserA { method run(b) { r = b.get(); return r; } }
    class UserB { method run(b) { s = b.get(); return s; } }
    class Main {
      static method main() {
        b = new Box;
        ua = new UserA;
        ub = new UserB;
        x = ua.run(b);
        y = ub.run(b);
      }
    }
  )";
  for (SolverEngine Engine : {SolverEngine::Naive, SolverEngine::Wave}) {
    SCOPED_TRACE(solverEngineName(Engine));
    auto P = parseOrDie(Src);
    ir::ClassHierarchy CH(*P);
    AnalysisOptions Opts;
    Opts.Kind = ContextKind::Object;
    Opts.K = 2;
    Opts.Engine = Engine;
    auto R = runPointerAnalysis(*P, CH, Opts);
    auto Ctxs = [&](const char *Sig) {
      return R->MethodCtxs[P->methodBySignature(Sig).idx()];
    };
    ASSERT_EQ(Ctxs("Box.get/0").size(), 1u) << "one shared cs-method";
    ASSERT_EQ(Ctxs("UserA.run/1").size(), 1u);
    ASSERT_EQ(Ctxs("UserB.run/1").size(), 1u);
    EXPECT_NE(Ctxs("UserA.run/1")[0], Ctxs("UserB.run/1")[0]);
    const std::vector<std::string> Val{"Val"}, Err{"Err"};
    EXPECT_EQ(pointeeTypes(*R, "UserA.run/1", "r"), Val);
    EXPECT_EQ(pointeeTypes(*R, "UserB.run/1", "s"), Val);
    EXPECT_EQ(pointeeTypes(*R, "UserA.run/1", "$exc"), Err);
    EXPECT_EQ(pointeeTypes(*R, "UserB.run/1", "$exc"), Err);
    EXPECT_EQ(pointeeTypes(*R, "Main.main/0", "x"), Val);
    EXPECT_EQ(pointeeTypes(*R, "Main.main/0", "y"), Val);
    EXPECT_EQ(pointeeTypes(*R, "Main.main/0", "$exc"), Err);
  }
}
