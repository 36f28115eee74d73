//===-- tests/pta/CIProjectionTest.cpp ---------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The batched context-insensitive projections of PTAResult
// (forEachCIVarPts, forEachCIFieldPts, forEachCIStaticPts, and ciVarPts)
// against a std::set reference built here, element by element, from
// varPts / forEachFieldPts / baseObjOf: for every variable, every (object,
// field) and every static field, under ci, 2obj, 2type and M-2obj, with
// both set backends. One program gives a single allocation site more than
// 64 cs-objects, so accumulated words straddle and one group unions many
// context sets. The grouping pass, which buckets var nodes by a counting
// sort over Nodes, is also pinned to see exactly the (context, var) nodes
// the MethodCtxs walk reaches.
//
//===----------------------------------------------------------------------===//

#include "core/Mahjong.h"
#include "pta/SetRep.h"
#include "workload/BenchmarkPrograms.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

using namespace mahjong;
using namespace mahjong::pta;
using namespace mahjong::test;

namespace {

constexpr unsigned NumMakers = 70;

/// Seventy receivers of Maker.make: under 2obj the Item and Box sites in
/// make() get one cs-object per receiver, main's `all` holds seventy Box
/// cs-objects in one set, and Box.v and Box.w each union seventy
/// cs-object fields, whose nodes interleave in node-id order.
std::string straddleSource() {
  std::ostringstream OS;
  OS << "class Item { }\n"
        "class Box { field v: Object; field w: Object; }\n"
        "class Maker {\n"
        "  field made: Object;\n"
        "  method make() {\n"
        "    i = new Item;\n"
        "    b = new Box;\n"
        "    b.w = this;\n"
        "    b.v = i;\n"
        "    this.made = b;\n"
        "    return b;\n"
        "  }\n"
        "}\n"
        "class Main {\n"
        "  static field keep: Object;\n"
        "  static field last: Object;\n"
        "  static method main() {\n";
  for (unsigned I = 0; I < NumMakers; ++I)
    OS << "    m" << I << " = new Maker;\n"
       << "    r" << I << " = m" << I << ".make();\n"
       << "    all = r" << I << ";\n";
  OS << "    Main::keep = all;\n"
        "    Main::last = m0;\n"
        "    n = null;\n"
        "    Main::last = n;\n"
        "  }\n"
        "}\n";
  return OS.str();
}

std::unique_ptr<ir::Program> buildProgram(const std::string &Name) {
  if (Name == "straddle")
    return parseOrDie(straddleSource());
  return workload::buildBenchmarkProgram(Name, 0.04);
}

/// The per-element reference: each variable's sets over its method's
/// contexts, inserted one element at a time.
std::set<uint32_t> refVarPts(const PTAResult &R, VarId V) {
  std::set<uint32_t> Ref;
  for (ContextId C : R.MethodCtxs[R.P.var(V).Method.idx()])
    if (const PointsToSet *S = R.varPts(C, V))
      for (uint32_t Raw : *S)
        Ref.insert(R.baseObjOf(Raw).idx());
  return Ref;
}

using FieldRows = std::map<std::pair<uint32_t, uint32_t>, std::set<uint32_t>>;

FieldRows refFieldPts(const PTAResult &R) {
  FieldRows Ref;
  R.forEachFieldPts([&](CSObjId O, FieldId F, const PointsToSet &S) {
    auto &Row = Ref[{R.baseObjOf(O.idx()).idx(), F.idx()}];
    for (uint32_t Raw : S)
      Row.insert(R.baseObjOf(Raw).idx());
  });
  return Ref;
}

std::map<uint32_t, std::set<uint32_t>> refStaticPts(const PTAResult &R) {
  std::map<uint32_t, std::set<uint32_t>> Ref;
  for (uint32_t I = 0; I < R.Nodes.size(); ++I) {
    uint64_t Key = R.Nodes.get(PtrNodeId(I));
    if (PTAResult::kindOf(Key) != PTAResult::KindStatic || R.Pts[I].empty())
      continue;
    auto &Row = Ref[PTAResult::staticFieldOf(Key).idx()];
    for (uint32_t Raw : R.Pts[I])
      Row.insert(R.baseObjOf(Raw).idx());
  }
  return Ref;
}

std::vector<uint32_t> toVec(const std::set<uint32_t> &S) {
  return {S.begin(), S.end()};
}

/// The most cs-objects any one allocation site has.
uint32_t maxCSObjsPerSite(const PTAResult &R) {
  std::vector<uint32_t> PerSite(R.P.numObjs(), 0);
  uint32_t Max = 0;
  for (uint32_t I = 0; I < R.CSM.numCSObjs(); ++I)
    Max = std::max(Max, ++PerSite[R.baseObjOf(I).idx()]);
  return Max;
}

enum class Flavour { CI, TwoObj, TwoType, M2Obj };

const char *flavourName(Flavour F) {
  switch (F) {
  case Flavour::CI:
    return "ci";
  case Flavour::TwoObj:
    return "2obj";
  case Flavour::TwoType:
    return "2type";
  case Flavour::M2Obj:
    return "M2obj";
  }
  return "?";
}

struct Config {
  std::string Program;
  Flavour F;
  SetRep Rep;
};

/// Every (program, flavour, backend) triple, named "program_flavour_rep".
std::vector<Config> allConfigs() {
  std::vector<Config> All;
  for (const char *Program : {"straddle", "antlr", "pmd"})
    for (Flavour F :
         {Flavour::CI, Flavour::TwoObj, Flavour::TwoType, Flavour::M2Obj})
      for (SetRep Rep : {SetRep::Chunked, SetRep::Hierarchy})
        All.push_back({Program, F, Rep});
  return All;
}

std::string configName(const Config &C) {
  return C.Program + "_" + flavourName(C.F) + "_" + setRepName(C.Rep);
}

void PrintTo(const Config &C, std::ostream *OS) { *OS << configName(C); }

/// A program with the hierarchy, MAHJONG heap and result of one config.
struct ConfigRun {
  std::unique_ptr<ir::Program> P;
  std::unique_ptr<ir::ClassHierarchy> CH;
  core::MahjongResult MR;
  std::unique_ptr<PTAResult> R;
};

ConfigRun runConfig(const std::string &Name, Flavour F, SetRep Rep) {
  ConfigRun X;
  X.P = buildProgram(Name);
  X.CH = std::make_unique<ir::ClassHierarchy>(*X.P);
  AnalysisOptions Opts;
  Opts.Rep = Rep;
  if (F != Flavour::CI) {
    Opts.Kind = F == Flavour::TwoType ? ContextKind::Type : ContextKind::Object;
    Opts.K = 2;
  }
  if (F == Flavour::M2Obj) {
    X.MR = core::buildMahjongHeap(*X.P, *X.CH);
    Opts.Heap = X.MR.Heap.get();
  }
  X.R = runPointerAnalysis(*X.P, *X.CH, Opts);
  return X;
}

} // namespace

class CIProjectionCase : public ::testing::TestWithParam<Config> {
protected:
  void SetUp() override {
    X = runConfig(GetParam().Program, GetParam().F, GetParam().Rep);
    P = X.P.get();
    R = X.R.get();
  }

  ConfigRun X;
  const ir::Program *P = nullptr;
  const PTAResult *R = nullptr;
};

TEST_P(CIProjectionCase, VarProjectionMatchesPerElementReference) {
  uint32_t Next = 0;
  uint64_t Projected = 0;
  R->forEachCIVarPts([&](VarId V, const PTAResult::ObjList &Objs) {
    ASSERT_EQ(V.idx(), Next++) << "variables out of order";
    std::vector<uint32_t> Ref = toVec(refVarPts(*R, V));
    EXPECT_EQ(Objs, Ref) << "batched projection of var " << V.idx();
    EXPECT_EQ(R->ciVarPts(V).toVector(), Ref)
        << "ciVarPts of var " << V.idx();
    Projected += Objs.size();
  });
  EXPECT_EQ(Next, P->numVars());
  EXPECT_GT(Projected, 0u);
}

TEST_P(CIProjectionCase, FieldProjectionsMatchPerElementReference) {
  FieldRows Ref = refFieldPts(*R);
  FieldRows Got;
  std::pair<uint32_t, uint32_t> Prev{0, 0};
  bool First = true;
  R->forEachCIFieldPts(
      [&](ObjId O, FieldId F, const PTAResult::ObjList &Objs) {
        std::pair<uint32_t, uint32_t> Key{O.idx(), F.idx()};
        EXPECT_TRUE(First || Prev < Key) << "rows out of (object, field) order";
        First = false;
        Prev = Key;
        EXPECT_TRUE(std::is_sorted(Objs.begin(), Objs.end()));
        Got[Key].insert(Objs.begin(), Objs.end());
        EXPECT_EQ(Got[Key].size(), Objs.size()) << "duplicate targets";
      });
  EXPECT_EQ(Got, Ref);

  std::map<uint32_t, std::set<uint32_t>> StaticRef = refStaticPts(*R);
  std::map<uint32_t, std::set<uint32_t>> StaticGot;
  R->forEachCIStaticPts([&](FieldId F, const PTAResult::ObjList &Objs) {
    EXPECT_TRUE(StaticGot.empty() || StaticGot.rbegin()->first < F.idx())
        << "static rows out of field order";
    EXPECT_TRUE(std::is_sorted(Objs.begin(), Objs.end()));
    StaticGot[F.idx()].insert(Objs.begin(), Objs.end());
  });
  EXPECT_EQ(StaticGot, StaticRef);
  EXPECT_FALSE(StaticRef.empty());
}

TEST_P(CIProjectionCase, GroupingSeesTheNodesOfTheMethodCtxsWalk) {
  std::set<std::pair<uint32_t, uint32_t>> FromNodes, FromWalk;
  for (uint32_t I = 0; I < R->Nodes.size(); ++I) {
    uint64_t Key = R->Nodes.get(PtrNodeId(I));
    if (PTAResult::kindOf(Key) != PTAResult::KindVar)
      continue;
    auto [C, V] = R->CSM.varOf(PTAResult::csVarOf(Key));
    FromNodes.insert({C.idx(), V.idx()});
  }
  for (uint32_t V = 0; V < P->numVars(); ++V)
    for (ContextId C : R->MethodCtxs[P->var(VarId(V)).Method.idx()])
      if (R->varPts(C, VarId(V)))
        FromWalk.insert({C.idx(), V});
  EXPECT_EQ(FromNodes, FromWalk);
}

INSTANTIATE_TEST_SUITE_P(CIProjectionConfigs, CIProjectionCase,
                         ::testing::ValuesIn(allConfigs()),
                         [](const ::testing::TestParamInfo<Config> &Info) {
                           return configName(Info.param);
                         });

TEST(CIProjection, EmptyResultProjectsEveryVarToNothing) {
  Analyzed A = analyze(R"(
    class Main {
      static method main() { }
      static method dead() { x = new Main; }
    }
  )");
  uint32_t Calls = 0;
  A.R->forEachCIVarPts([&](VarId, const PTAResult::ObjList &Objs) {
    EXPECT_TRUE(Objs.empty());
    ++Calls;
  });
  EXPECT_EQ(Calls, A.P->numVars());
  A.R->forEachCIFieldPts([&](ObjId, FieldId, const PTAResult::ObjList &) {
    ADD_FAILURE() << "no field has a points-to set";
  });
}

TEST(CIProjection, StraddleProgramGivesOneSiteOver64CSObjectsUnder2obj) {
  for (SetRep Rep : {SetRep::Chunked, SetRep::Hierarchy}) {
    ConfigRun X = runConfig("straddle", Flavour::TwoObj, Rep);
    const PTAResult &R = *X.R;
    EXPECT_GT(maxCSObjsPerSite(R), 64u) << setRepName(Rep);
    VarId All = findVar(*X.P, "Main.main/0", "all");
    uint32_t CSObjs = 0;
    for (ContextId C : R.MethodCtxs[X.P->var(All).Method.idx()])
      if (const PointsToSet *S = R.varPts(C, All))
        CSObjs += S->size();
    EXPECT_EQ(CSObjs, NumMakers) << "one Box cs-object per receiver";
    EXPECT_EQ(R.ciVarPts(All).size(), 1u) << "all of them one Box site";
  }
}
