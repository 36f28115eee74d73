//===-- tests/clients/ClientsTest.cpp ----------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The three type-dependent clients, including the paper's Figure 1
// comparison of the allocation-site, allocation-type, and MAHJONG heaps.
//
//===----------------------------------------------------------------------===//

#include "clients/Clients.h"

#include "../TestUtil.h"
#include "core/Mahjong.h"

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
      a.foo();     // mono-call in truth
      c = (C) a;   // safe in truth
    }
  }
)";

} // namespace

TEST(Clients, Figure1UnderAllocSite) {
  auto A = analyze(Figure1Src);
  ClientResults CR = evaluateClients(*A.R);
  EXPECT_EQ(CR.PolyCallSites, 0u);
  EXPECT_EQ(CR.MonoCallSites, 1u) << "a.foo() is devirtualizable";
  EXPECT_EQ(CR.MayFailCasts, 0u) << "(C) a is safe";
  EXPECT_EQ(CR.TotalCasts, 1u);
}

TEST(Clients, Figure1UnderAllocType) {
  auto P = parseOrDie(Figure1Src);
  ClassHierarchy CH(*P);
  AllocTypeAbstraction Heap(*P);
  AnalysisOptions Opts;
  Opts.Heap = &Heap;
  auto R = runPointerAnalysis(*P, CH, Opts);
  ClientResults CR = evaluateClients(*R);
  EXPECT_EQ(CR.PolyCallSites, 1u) << "a.foo() becomes a poly-call";
  EXPECT_EQ(CR.MayFailCasts, 1u) << "(C) a may now fail";
}

TEST(Clients, Figure1UnderMahjong) {
  auto P = parseOrDie(Figure1Src);
  ClassHierarchy CH(*P);
  core::MahjongResult MR = core::buildMahjongHeap(*P, CH);
  AnalysisOptions Opts;
  Opts.Heap = MR.Heap.get();
  auto R = runPointerAnalysis(*P, CH, Opts);
  ClientResults CR = evaluateClients(*R);
  EXPECT_EQ(CR.PolyCallSites, 0u) << "MAHJONG preserves devirtualization";
  EXPECT_EQ(CR.MayFailCasts, 0u) << "MAHJONG preserves cast safety";
}

TEST(Clients, GenuinelyUnsafeCastIsAlwaysReported) {
  auto A = analyze(R"(
    class A { }
    class B extends A { }
    class C extends A { }
    class Main {
      static method main() {
        x = new B;
        c = (C) x;   // always fails at runtime
      }
    }
  )");
  ClientResults CR = evaluateClients(*A.R);
  EXPECT_EQ(CR.MayFailCasts, 1u);
}

TEST(Clients, NullOnlyCastIsSafe) {
  auto A = analyze(R"(
    class C { }
    class Main { static method main() { x = null; c = (C) x; } }
  )");
  EXPECT_EQ(evaluateClients(*A.R).MayFailCasts, 0u);
}

TEST(Clients, CastsInUnreachableCodeAreNotCounted) {
  auto A = analyze(R"(
    class A { }
    class B extends A { }
    class Main {
      static method main() { x = new B; }
      static method dead() { y = new A; c = (B) y; }
    }
  )");
  ClientResults CR = evaluateClients(*A.R);
  EXPECT_EQ(CR.TotalCasts, 0u);
  EXPECT_EQ(CR.MayFailCasts, 0u);
}

TEST(Clients, PolyAndMonoCountVirtualSitesOnly) {
  auto A = analyze(R"(
    class A { method m() { return this; } }
    class B extends A { method m() { return this; } }
    class Main {
      static method main() {
        mono = new A;
        mono.m();
        poly = new A;
        poly = Main::mix(poly);
        poly.m();
        Main::help();        // static call: neither poly nor mono
      }
      static method mix(p) { q = new B; return q; }
      static method help() { }
    }
  )");
  ClientResults CR = evaluateClients(*A.R);
  EXPECT_EQ(CR.MonoCallSites, 1u);
  EXPECT_EQ(CR.PolyCallSites, 1u);
}

TEST(Clients, VirtualTargetsHelper) {
  auto A = analyze(R"(
    class A { method m() { return this; } }
    class B extends A { method m() { return this; } }
    class Main {
      static method main() {
        x = new A;
        x = new B;
        x.m();
      }
    }
  )");
  // The call site is the only one in main.
  std::vector<CallSiteId> Sites = A.R->CG.callSitesWithEdges();
  ASSERT_EQ(Sites.size(), 1u);
  EXPECT_EQ(A.R->CG.calleesOf(Sites[0]).size(), 2u);
}

TEST(Clients, ToStringMentionsAllMetrics) {
  ClientResults CR;
  CR.CallGraphEdges = 12;
  CR.PolyCallSites = 3;
  CR.MayFailCasts = 4;
  CR.TotalCasts = 9;
  std::string S = toString(CR);
  EXPECT_NE(S.find("edges=12"), std::string::npos);
  EXPECT_NE(S.find("poly=3"), std::string::npos);
  EXPECT_NE(S.find("mayfail=4/9"), std::string::npos);
}

TEST(Clients, CastMayFailChecksEveryContext) {
  // Under 2obj the cast is safe in one context, unsafe in another: the
  // client must report it.
  auto A = analyze(R"(
    class T { }
    class U { }
    class Id { method id(p) { return p; } }
    class Main {
      static method main() {
        h1 = new Id;
        h2 = new Id;
        t = new T;
        u = new U;
        rt = h1.id(t);
        ru = h2.id(u);
        c = (T) ru;    // fails: ru is a U
      }
    }
  )",
                   ContextKind::Object, 2);
  EXPECT_EQ(evaluateClients(*A.R).MayFailCasts, 1u);
}
