//===-- tests/pta/SolverStressTest.cpp ---------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Regression anchors for solver behaviors that once bit us during
// calibration, plus stress shapes (deep recursion, wide fan-out, the
// time budget) that must stay cheap and correct.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "workload/SyntheticBuilder.h"

#include <gtest/gtest.h>

using namespace mahjong;
using namespace mahjong::pta;
using namespace mahjong::test;

TEST(SolverStress, MakerIndirectionCollapsesBoxesUnderTwoObj) {
  // Regression: with a second factory level, 2obj's k-1 heap contexts
  // keep only [maker], so all boxes of a family collapse into ONE
  // cs-object — while 3obj keeps them apart per engine. This exact
  // truncation semantics silently destroyed the Table 2 cost shapes
  // once; pin it.
  workload::WorkloadSpec Spec;
  Spec.Modules = 6;
  Spec.EngineSitesPerModule = 4;
  Spec.UseMakerIndirection = true;
  auto P = workload::buildSyntheticProgram(Spec);
  ir::ClassHierarchy CH(*P);

  AnalysisOptions O2;
  O2.Kind = ContextKind::Object;
  O2.K = 2;
  auto R2 = runPointerAnalysis(*P, CH, O2);
  AnalysisOptions O3 = O2;
  O3.K = 3;
  auto R3 = runPointerAnalysis(*P, CH, O3);

  MethodId Put = P->methodBySignature("Box0.put/1");
  ASSERT_TRUE(Put.isValid());
  size_t Ctx2 = R2->MethodCtxs[Put.idx()].size();
  size_t Ctx3 = R3->MethodCtxs[Put.idx()].size();
  EXPECT_LT(Ctx2, Ctx3) << "2obj must see far fewer put contexts than "
                           "3obj under maker indirection";
  EXPECT_LE(Ctx2, 4u);
}

TEST(SolverStress, WithoutMakerTwoObjKeepsPerEngineContexts) {
  workload::WorkloadSpec Spec;
  Spec.Modules = 6;
  Spec.EngineSitesPerModule = 4;
  Spec.UseMakerIndirection = false;
  auto P = workload::buildSyntheticProgram(Spec);
  ir::ClassHierarchy CH(*P);
  AnalysisOptions O2;
  O2.Kind = ContextKind::Object;
  O2.K = 2;
  auto R2 = runPointerAnalysis(*P, CH, O2);
  MethodId Put = P->methodBySignature("Box0.put/1");
  ASSERT_TRUE(Put.isValid());
  EXPECT_GT(R2->MethodCtxs[Put.idx()].size(), 4u)
      << "direct engine factories keep per-engine box contexts";
}

TEST(SolverStress, DeepStaticRecursionStaysBoundedUnderKCFA) {
  auto A = analyze(R"(
    class T { }
    class Main {
      static method main() { x = new T; r = Main::f(x); }
      static method f(p) { q = Main::g(p); return p; }
      static method g(p) { q = Main::f(p); return q; }
    }
  )",
                   ContextKind::CallSite, 2);
  EXPECT_FALSE(A.R->Stats.TimedOut);
  EXPECT_LT(A.R->Stats.NumContexts, 40u)
      << "mutual recursion cycles through finitely many 2cs contexts";
  EXPECT_EQ(pointeeTypes(*A.R, "Main.main/0", "r"),
            (std::vector<std::string>{"T"}));
}

TEST(SolverStress, WideReceiverFanOutDispatchesEverything) {
  // One call site, many receiver objects, several target methods.
  std::string Src = R"(
    class A { method m() { return this; } }
    class B extends A { method m() { return this; } }
    class Main {
      static method main() {
)";
  for (int I = 0; I < 40; ++I)
    Src += "        x = new " + std::string(I % 2 ? "A" : "B") + ";\n";
  Src += R"(
        x.m();
      }
    }
  )";
  auto A = analyze(Src);
  std::vector<CallSiteId> Sites = A.R->CG.callSitesWithEdges();
  ASSERT_EQ(Sites.size(), 1u);
  EXPECT_EQ(A.R->CG.calleesOf(Sites[0]).size(), 2u);
  EXPECT_EQ(A.R->CG.numCSEdges(), 2u);
}

TEST(SolverStress, TimeBudgetProducesPartialButConsistentResult) {
  // The solvers check the budget once every 8,192 worklist pops, so the
  // program must need more pops than that, and the budget must already
  // be spent at the first check.
  constexpr uint64_t PopsPerBudgetCheck = 8192;
  workload::WorkloadSpec Spec;
  Spec.Modules = 30;
  auto P = workload::buildSyntheticProgram(Spec);
  ir::ClassHierarchy CH(*P);
  AnalysisOptions Opts;
  Opts.Kind = ContextKind::Object;
  Opts.K = 3;
  auto Full = runPointerAnalysis(*P, CH, Opts);
  ASSERT_FALSE(Full->Stats.TimedOut);
  ASSERT_GT(Full->Stats.WorklistPops, PopsPerBudgetCheck);

  Opts.TimeBudgetSeconds = 1e-9; // spent before the first check
  auto R = runPointerAnalysis(*P, CH, Opts);
  ASSERT_TRUE(R->Stats.TimedOut);
  EXPECT_EQ(R->Stats.WorklistPops, PopsPerBudgetCheck);
  // The partial result must still be internally consistent.
  EXPECT_GT(R->Stats.NumReachableMethods, 0u);
  EXPECT_LE(R->Stats.NumReachableMethods, Full->Stats.NumReachableMethods);
  EXPECT_EQ(R->Pts.size(), R->Nodes.size());
}

TEST(SolverStress, SelfAssignmentAndSelfStoreAreHarmless) {
  auto A = analyze(R"(
    class N { field next: N; }
    class Main {
      static method main() {
        a = new N;
        a = a;
        a.next = a;
        b = a.next;
      }
    }
  )");
  EXPECT_EQ(pointeeObjs(*A.R, "Main.main/0", "b"),
            (std::vector<std::string>{"o1<N>"}));
}

TEST(SolverStress, ArgArityMismatchIsTolerated) {
  // Dispatch is by name/arity, so a mismatch cannot happen through the
  // frontend; the solver still guards the zip of args/params. Build a
  // direct call with matching arity but unused params.
  auto A = analyze(R"(
    class T { }
    class Main {
      static method main() { x = new T; Main::f(x); }
      static method f(p) { }
    }
  )");
  EXPECT_EQ(pointeeObjs(*A.R, "Main.f/1", "p"),
            (std::vector<std::string>{"o1<T>"}));
}
