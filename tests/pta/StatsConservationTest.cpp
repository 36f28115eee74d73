//===-- tests/pta/StatsConservationTest.cpp ----------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Conservation laws of the PTAStats the observability layer exports.
// Since PR 5, SetBytes is computed uniformly by SolverCore over the
// flattened solution (PointsToSet::liveBytes), so it — like
// VarPtsEntries — is a pure function of the solution and must be
// bit-identical across the naive and wave engines on every workload
// profile. The engine-owned WorkingSetBytes may differ between engines
// but never be zero on a non-trivial run.
//
//===----------------------------------------------------------------------===//

#include "pta/PointerAnalysis.h"

#include "workload/BenchmarkPrograms.h"

#include <gtest/gtest.h>

using namespace mahjong;
using namespace mahjong::pta;

namespace {

std::unique_ptr<PTAResult> runWith(const ir::Program &P,
                                   const ir::ClassHierarchy &CH,
                                   SolverEngine Engine) {
  AnalysisOptions Opts; // context-insensitive: every profile is scalable
  Opts.Engine = Engine;
  return runPointerAnalysis(P, CH, Opts);
}

TEST(StatsConservation, SolutionStatsAgreeAcrossEnginesOnAllProfiles) {
  const double Scale = 0.05; // smoke scale: shapes, not sizes
  for (const std::string &Name : workload::benchmarkNames()) {
    SCOPED_TRACE(Name);
    auto P = workload::buildBenchmarkProgram(Name, Scale);
    ir::ClassHierarchy CH(*P);

    auto Naive = runWith(*P, CH, SolverEngine::Naive);
    auto Wave = runWith(*P, CH, SolverEngine::Wave);
    ASSERT_GT(Wave->Stats.VarPtsEntries, 0u);
    EXPECT_EQ(Naive->Stats.VarPtsEntries, Wave->Stats.VarPtsEntries);
    EXPECT_EQ(Naive->Stats.SetBytes, Wave->Stats.SetBytes);
    EXPECT_GT(Naive->Stats.WorkingSetBytes, 0u);
    EXPECT_GT(Wave->Stats.WorkingSetBytes, 0u);
  }
}

TEST(StatsConservation, WaveLatencyHistogramMatchesWaveCount) {
  // The per-wave latency histogram rides on PTAResult: its sample count
  // is the number of waves the engine ran, and the naive engine (no wave
  // structure) leaves it empty.
  auto P = workload::buildBenchmarkProgram("antlr", 0.05);
  ir::ClassHierarchy CH(*P);

  auto Wave = runWith(*P, CH, SolverEngine::Wave);
  EXPECT_GT(Wave->WaveMicros.count(), 0u);

  auto Naive = runWith(*P, CH, SolverEngine::Naive);
  EXPECT_EQ(Naive->WaveMicros.count(), 0u);
}

} // namespace
