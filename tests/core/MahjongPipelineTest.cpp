//===-- tests/core/MahjongPipelineTest.cpp -----------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// End-to-end properties of the full pipeline (Figure 5): soundness (the
// MAHJONG-based analysis over-approximates the baseline's call graph) and
// precision (the type-dependent client metrics match the baseline) on
// synthetic workloads, for all three context flavours.
//
//===----------------------------------------------------------------------===//

#include "core/Mahjong.h"

#include "../TestUtil.h"
#include "clients/Clients.h"
#include "workload/BenchmarkPrograms.h"

#include <gtest/gtest.h>

#include <set>

using namespace mahjong;
using namespace mahjong::core;
using namespace mahjong::ir;
using namespace mahjong::pta;
using namespace mahjong::test;

namespace {

/// CI call-graph edges as a comparable set of (site, callee) pairs.
std::set<std::pair<uint32_t, uint32_t>> ciEdges(const PTAResult &R) {
  std::set<std::pair<uint32_t, uint32_t>> Edges;
  for (CallSiteId Site : R.CG.callSitesWithEdges())
    for (MethodId Callee : R.CG.calleesOf(Site))
      Edges.insert({Site.idx(), Callee.idx()});
  return Edges;
}

} // namespace

TEST(MahjongPipeline, ProducesTimingBreakdown) {
  workload::WorkloadSpec Spec;
  Spec.Modules = 4;
  auto P = workload::buildSyntheticProgram(Spec);
  ClassHierarchy CH(*P);
  MahjongResult MR = buildMahjongHeap(*P, CH);
  EXPECT_GE(MR.PreSeconds, 0.0);
  EXPECT_GE(MR.FPGSeconds, 0.0);
  EXPECT_GE(MR.MahjongSeconds, 0.0);
  EXPECT_GT(MR.numAllocSiteObjects(), MR.numMahjongObjects())
      << "some merging must happen on container-heavy workloads";
  EXPECT_TRUE(MR.Heap != nullptr);
  EXPECT_EQ(MR.Heap->name(), "mahjong");
}

TEST(MahjongPipeline, PreAnalysisRunsTheChosenEngineAndBackend) {
  workload::WorkloadSpec Spec;
  Spec.Modules = 4;
  auto P = workload::buildSyntheticProgram(Spec);
  ClassHierarchy CH(*P);
  std::vector<ObjId> Reference;
  for (SolverEngine Engine : {SolverEngine::Naive, SolverEngine::Wave})
    for (SetRep Rep : {SetRep::Chunked, SetRep::Hierarchy}) {
      MahjongOptions Opts;
      Opts.PreEngine = Engine;
      Opts.PreRep = Rep;
      MahjongResult MR = buildMahjongHeap(*P, CH, Opts);
      EXPECT_EQ(MR.Pre->EngineName, solverEngineName(Engine));
      EXPECT_EQ(MR.Pre->SetRepName, setRepName(Rep));
      if (Reference.empty())
        Reference = MR.MOM;
      EXPECT_EQ(MR.MOM, Reference)
          << solverEngineName(Engine) << " x " << setRepName(Rep);
    }
}

class PipelineSweepTest
    : public ::testing::TestWithParam<std::tuple<ContextKind, unsigned>> {};

TEST_P(PipelineSweepTest, MahjongIsSoundAndPreciseForClients) {
  auto [Kind, K] = GetParam();
  workload::WorkloadSpec Spec;
  Spec.Seed = 42;
  Spec.Modules = 4;
  Spec.MixedPerMille = 120;
  Spec.ElemChainPerMille = 400;
  auto P = workload::buildSyntheticProgram(Spec);
  ClassHierarchy CH(*P);

  AnalysisOptions Base;
  Base.Kind = Kind;
  Base.K = K;
  auto BaseR = runPointerAnalysis(*P, CH, Base);

  MahjongResult MR = buildMahjongHeap(*P, CH);
  AnalysisOptions Merged = Base;
  Merged.Heap = MR.Heap.get();
  auto MergedR = runPointerAnalysis(*P, CH, Merged);

  // Soundness: every baseline call edge survives merging.
  auto BaseEdges = ciEdges(*BaseR);
  auto MergedEdges = ciEdges(*MergedR);
  for (const auto &E : BaseEdges)
    ASSERT_TRUE(MergedEdges.count(E))
        << "lost call edge under " << analysisName(Kind, K);

  // Precision for type-dependent clients: nearly the paper's "nearly the
  // same" — on these workloads it is exactly the same.
  clients::ClientResults BaseCR = clients::evaluateClients(*BaseR);
  clients::ClientResults MergedCR = clients::evaluateClients(*MergedR);
  EXPECT_EQ(MergedCR.CallGraphEdges, BaseCR.CallGraphEdges);
  EXPECT_EQ(MergedCR.PolyCallSites, BaseCR.PolyCallSites);
  EXPECT_EQ(MergedCR.MayFailCasts, BaseCR.MayFailCasts);
  EXPECT_EQ(MergedCR.ReachableMethods, BaseCR.ReachableMethods);
}

INSTANTIATE_TEST_SUITE_P(
    Analyses, PipelineSweepTest,
    ::testing::Values(std::tuple{ContextKind::Insensitive, 0u},
                      std::tuple{ContextKind::CallSite, 2u},
                      std::tuple{ContextKind::Object, 2u},
                      std::tuple{ContextKind::Object, 3u},
                      std::tuple{ContextKind::Type, 2u},
                      std::tuple{ContextKind::Type, 3u}));

TEST(MahjongPipeline, MergedHeapShrinksContextSpace) {
  workload::WorkloadSpec Spec;
  Spec.Modules = 6;
  auto P = workload::buildSyntheticProgram(Spec);
  ClassHierarchy CH(*P);
  AnalysisOptions Base;
  Base.Kind = ContextKind::Object;
  Base.K = 3;
  auto BaseR = runPointerAnalysis(*P, CH, Base);
  MahjongResult MR = buildMahjongHeap(*P, CH);
  AnalysisOptions Merged = Base;
  Merged.Heap = MR.Heap.get();
  auto MergedR = runPointerAnalysis(*P, CH, Merged);
  EXPECT_LT(MergedR->Stats.NumCSObjs, BaseR->Stats.NumCSObjs);
  EXPECT_LT(MergedR->Stats.NumContexts, BaseR->Stats.NumContexts);
  EXPECT_LT(MergedR->Stats.VarPtsEntries, BaseR->Stats.VarPtsEntries);
}

TEST(MahjongPipeline, RunMahjongAnalysisConvenienceWrapper) {
  workload::WorkloadSpec Spec;
  Spec.Modules = 3;
  auto P = workload::buildSyntheticProgram(Spec);
  ClassHierarchy CH(*P);
  MahjongAnalysis MA = runMahjongAnalysis(*P, CH, ContextKind::Object, 2);
  EXPECT_EQ(MA.Result->AnalysisName, "M-2obj");
  EXPECT_EQ(MA.Result->HeapName, "mahjong");
  EXPECT_FALSE(MA.Result->Stats.TimedOut);
}

TEST(MahjongPipeline, BenchmarkProfilesAllBuildAndMerge) {
  // Every named profile must generate, pre-analyze and model at a small
  // scale; this guards the profile table itself.
  for (const std::string &Name : workload::benchmarkNames()) {
    workload::WorkloadSpec Spec = workload::benchmarkSpec(Name, 0.02);
    auto P = workload::buildSyntheticProgram(Spec);
    ClassHierarchy CH(*P);
    MahjongResult MR = buildMahjongHeap(*P, CH);
    EXPECT_GT(MR.numAllocSiteObjects(), 0u) << Name;
    EXPECT_LE(MR.numMahjongObjects(), MR.numAllocSiteObjects()) << Name;
  }
}
