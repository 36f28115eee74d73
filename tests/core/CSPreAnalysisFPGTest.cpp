//===-- tests/core/CSPreAnalysisFPGTest.cpp -----------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The FPG builder projects ANY pre-analysis onto base objects — the
// MahjongOptions::PreKind extension relies on it. These tests feed it
// context-sensitive results and check the projection and the downstream
// merging behavior.
//
//===----------------------------------------------------------------------===//

#include "core/FieldPointsToGraph.h"

#include "../TestUtil.h"
#include "core/DFAPartition.h"
#include "core/Mahjong.h"

#include <gtest/gtest.h>

using namespace mahjong;
using namespace mahjong::core;
using namespace mahjong::ir;
using namespace mahjong::test;

namespace {

// The identity-method conflation example: ci sees both boxes' contents
// as {T, U}; 2obj sees them exactly.
const char *BoxSrc = R"(
  class T { }
  class U { }
  class Box {
    field val: Object;
    method set(v) { this.val = v; return this; }
  }
  class Main {
    static method main() {
      bt = new Box;
      bu = new Box;
      t = new T;
      u = new U;
      bt.set(t);
      bu.set(u);
    }
  }
)";

} // namespace

TEST(CSPreAnalysisFPG, ProjectionCollapsesHeapContexts) {
  auto A = analyze(BoxSrc, pta::ContextKind::Object, 2);
  FieldPointsToGraph G(*A.R);
  FieldId Val = A.P->findField(A.P->typeByName("Box"), "val");
  // Under the 2obj pre-analysis the two boxes' contents are exact.
  const std::vector<ObjId> &BT = G.succ(ObjId(1), Val);
  ASSERT_EQ(BT.size(), 1u);
  EXPECT_EQ(A.P->type(A.P->obj(BT[0]).Type).Name, "T");
  const std::vector<ObjId> &BU = G.succ(ObjId(2), Val);
  ASSERT_EQ(BU.size(), 1u);
  EXPECT_EQ(A.P->type(A.P->obj(BU[0]).Type).Name, "U");
}

TEST(CSPreAnalysisFPG, CiProjectionIsCoarser) {
  auto A = analyze(BoxSrc, pta::ContextKind::Insensitive);
  FieldPointsToGraph G(*A.R);
  FieldId Val = A.P->findField(A.P->typeByName("Box"), "val");
  EXPECT_EQ(G.succ(ObjId(1), Val).size(), 2u)
      << "ci conflates the shared set() param";
}

TEST(CSPreAnalysisFPG, SharperPreAnalysisSplitsSpuriousViolators) {
  // Under ci both boxes are condition-2 violators (mixed {T, U}); under
  // the 2obj pre-analysis they are single-typed but different — so they
  // still don't merge, correctly, while losing the "violator" status.
  auto P = parseOrDie(BoxSrc);
  ClassHierarchy CH(*P);

  MahjongOptions Ci;
  MahjongResult MRci = buildMahjongHeap(*P, CH, Ci);
  MahjongOptions Obj;
  Obj.PreKind = pta::ContextKind::Object;
  Obj.PreK = 2;
  MahjongResult MRobj = buildMahjongHeap(*P, CH, Obj);

  EXPECT_NE(MRci.MOM[1], MRci.MOM[2]);
  EXPECT_NE(MRobj.MOM[1], MRobj.MOM[2]);

  // The verdicts over automata closed on the FPG each heap modeler ran on.
  auto SingleType = [](MahjongResult &MR, ObjId O) {
    DFACache Cache(*MR.FPG);
    return partitionSingleType(Cache, O);
  };
  EXPECT_FALSE(SingleType(MRci, ObjId(1)))
      << "ci: mixed-type field -> condition-2 violation";
  EXPECT_TRUE(SingleType(MRobj, ObjId(1)))
      << "2obj: exact single-typed field";
}

TEST(CSPreAnalysisFPG, SharperPreAnalysisEnablesRealMerges) {
  // Two boxes that DO store the same type, but through a shared helper:
  // ci mixes a third type in via another call site, blocking the merge;
  // 2obj separates the helper contexts and the boxes merge.
  auto P = parseOrDie(R"(
    class T { }
    class U { }
    class Box {
      field val: Object;
      method set(v) { this.val = v; return this; }
    }
    class Main {
      static method main() {
        b1 = new Box;   // o1: stores T
        b2 = new Box;   // o2: stores T
        b3 = new Box;   // o3: stores U
        t1 = new T;
        t2 = new T;
        u = new U;
        b1.set(t1);
        b2.set(t2);
        b3.set(u);
      }
    }
  )");
  ClassHierarchy CH(*P);
  MahjongOptions Ci;
  MahjongResult MRci = buildMahjongHeap(*P, CH, Ci);
  EXPECT_NE(MRci.MOM[1], MRci.MOM[2])
      << "ci conflation blocks the legitimate merge";

  MahjongOptions Obj;
  Obj.PreKind = pta::ContextKind::Object;
  Obj.PreK = 2;
  MahjongResult MRobj = buildMahjongHeap(*P, CH, Obj);
  EXPECT_EQ(MRobj.MOM[1], MRobj.MOM[2])
      << "the 2obj pre-analysis recovers it";
  EXPECT_NE(MRobj.MOM[1], MRobj.MOM[3]) << "the U box stays apart";
  EXPECT_LT(MRobj.Modeling.NumClasses, MRci.Modeling.NumClasses);
}
