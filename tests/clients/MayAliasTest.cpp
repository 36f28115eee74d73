//===-- tests/clients/MayAliasTest.cpp ---------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The may-alias client — and the paper's documented trade-off: MAHJONG
// targets type-dependent clients, so merging type-consistent objects is
// allowed to (and does) cost alias precision even while the three
// type-dependent clients stay exact.
//
//===----------------------------------------------------------------------===//

#include "clients/Clients.h"

#include "../TestUtil.h"
#include "core/Mahjong.h"
#include "workload/BenchmarkPrograms.h"

#include <gtest/gtest.h>

using namespace mahjong;
using namespace mahjong::clients;
using namespace mahjong::ir;
using namespace mahjong::pta;
using namespace mahjong::test;

namespace {

const char *Figure1Src = R"(
  class A { field f: A; method foo() { return this; } }
  class B extends A { method foo() { return this; } }
  class C extends A { method foo() { return this; } }
  class Main {
    static method main() {
      x = new A;
      y = new A;
      z = new A;
      xf = new B;
      x.f = xf;
      yf = new C;
      y.f = yf;
      zf = new C;
      z.f = zf;
      a = z.f;
      a.foo();
      c = (C) a;
    }
  }
)";

/// The aggregate by definition: one mayAlias query per local pair.
uint64_t pairwiseAliasedPairs(const PTAResult &R, MethodId M) {
  std::vector<VarId> Locals;
  for (uint32_t I = 0; I < R.P.numVars(); ++I)
    if (R.P.var(VarId(I)).Method == M)
      Locals.push_back(VarId(I));
  uint64_t Pairs = 0;
  for (size_t I = 0; I < Locals.size(); ++I)
    for (size_t J = I + 1; J < Locals.size(); ++J)
      Pairs += mayAlias(R, Locals[I], Locals[J]);
  return Pairs;
}

} // namespace

TEST(MayAlias, BasicQueries) {
  auto A = analyze(R"(
    class T { }
    class Main {
      static method main() {
        p = new T;
        q = p;
        r = new T;
        n = null;
        m = null;
      }
    }
  )");
  auto V = [&](const char *Name) {
    return findVar(*A.P, "Main.main/0", Name);
  };
  EXPECT_TRUE(mayAlias(*A.R, V("p"), V("q")));
  EXPECT_FALSE(mayAlias(*A.R, V("p"), V("r")));
  EXPECT_FALSE(mayAlias(*A.R, V("n"), V("m")))
      << "two nulls do not alias";
  EXPECT_TRUE(mayAlias(*A.R, V("p"), V("p"))) << "self-alias";
}

TEST(MayAlias, AllocSiteKeepsFigure1VarsApart) {
  auto A = analyze(Figure1Src);
  auto V = [&](const char *Name) {
    return findVar(*A.P, "Main.main/0", Name);
  };
  EXPECT_FALSE(mayAlias(*A.R, V("y"), V("z")));
  EXPECT_FALSE(mayAlias(*A.R, V("yf"), V("zf")));
}

TEST(MayAlias, MahjongTradesAliasPrecisionForSpeed) {
  // The documented §1/§2 trade-off: under MAHJONG the merged o2/o3 (and
  // o5/o6) make y/z and yf/zf alias — while the type-dependent clients
  // remain exact (ClientsTest.Figure1UnderMahjong).
  auto P = parseOrDie(Figure1Src);
  ClassHierarchy CH(*P);
  core::MahjongResult MR = core::buildMahjongHeap(*P, CH);
  AnalysisOptions Opts;
  Opts.Heap = MR.Heap.get();
  auto R = runPointerAnalysis(*P, CH, Opts);
  auto V = [&](const char *Name) {
    return findVar(*P, "Main.main/0", Name);
  };
  EXPECT_TRUE(mayAlias(*R, V("y"), V("z")))
      << "merged sites alias under MAHJONG";
  EXPECT_TRUE(mayAlias(*R, V("yf"), V("zf")));
  EXPECT_FALSE(mayAlias(*R, V("x"), V("y")))
      << "o1 stayed unmerged, so x/y still do not alias";
}

TEST(MayAlias, AggregatePairCountOrdersAbstractions) {
  // alias pairs: alloc-site <= mahjong <= alloc-type (coarser heaps can
  // only add alias pairs).
  auto P = parseOrDie(Figure1Src);
  ClassHierarchy CH(*P);
  MethodId Main = P->entryMethod();

  AnalysisOptions Base;
  auto BaseR = runPointerAnalysis(*P, CH, Base);
  uint64_t BasePairs = countAliasedLocalPairs(*BaseR, Main);

  core::MahjongResult MR = core::buildMahjongHeap(*P, CH);
  AnalysisOptions MOpts;
  MOpts.Heap = MR.Heap.get();
  auto Mres = runPointerAnalysis(*P, CH, MOpts);
  uint64_t MPairs = countAliasedLocalPairs(*Mres, Main);

  AllocTypeAbstraction TypeHeap(*P);
  AnalysisOptions TOpts;
  TOpts.Heap = &TypeHeap;
  auto Tres = runPointerAnalysis(*P, CH, TOpts);
  uint64_t TPairs = countAliasedLocalPairs(*Tres, Main);

  EXPECT_LT(BasePairs, MPairs) << "MAHJONG costs alias precision";
  EXPECT_LE(MPairs, TPairs) << "but less than blind type merging";
}

TEST(MayAlias, AggregatePairCountMatchesPairwiseQueries) {
  auto P = parseOrDie(Figure1Src);
  ClassHierarchy CH(*P);
  MethodId Main = P->entryMethod();
  core::MahjongResult MR = core::buildMahjongHeap(*P, CH);
  AllocTypeAbstraction TypeHeap(*P);
  for (const HeapAbstraction *Heap :
       {static_cast<const HeapAbstraction *>(nullptr),
        static_cast<const HeapAbstraction *>(MR.Heap.get()),
        static_cast<const HeapAbstraction *>(&TypeHeap)}) {
    AnalysisOptions Opts;
    Opts.Heap = Heap;
    auto R = runPointerAnalysis(*P, CH, Opts);
    EXPECT_EQ(countAliasedLocalPairs(*R, Main),
              pairwiseAliasedPairs(*R, Main));
  }

  // Null is no alias: of p, q, r, n, m only (p, q) counts.
  auto Nulls = analyze(R"(
    class T { }
    class Main {
      static method main() {
        p = new T;
        q = p;
        r = new T;
        n = null;
        m = null;
      }
    }
  )");
  MethodId NullsMain = Nulls.P->entryMethod();
  EXPECT_EQ(pairwiseAliasedPairs(*Nulls.R, NullsMain), 1u);
  EXPECT_EQ(countAliasedLocalPairs(*Nulls.R, NullsMain), 1u);

  // The reachable method of a generated profile with the most locals.
  auto Gen = workload::buildBenchmarkProgram("antlr", 0.05);
  ClassHierarchy GenCH(*Gen);
  AnalysisOptions Opts;
  auto R = runPointerAnalysis(*Gen, GenCH, Opts);
  std::vector<uint32_t> NumLocals(Gen->numMethods(), 0);
  for (uint32_t I = 0; I < Gen->numVars(); ++I)
    ++NumLocals[Gen->var(VarId(I)).Method.idx()];
  uint32_t Best = Gen->entryMethod().idx();
  for (uint32_t M = 0; M < Gen->numMethods(); ++M)
    if (R->ReachableMethod[M] && NumLocals[M] > NumLocals[Best])
      Best = M;
  uint64_t Want = pairwiseAliasedPairs(*R, MethodId(Best));
  EXPECT_GT(Want, 0u) << Gen->method(MethodId(Best)).Signature;
  EXPECT_EQ(countAliasedLocalPairs(*R, MethodId(Best)), Want);
}
