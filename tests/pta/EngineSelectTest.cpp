//===-- tests/pta/EngineSelectTest.cpp ---------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Adaptive engine selection (SolverEngine::Auto). The chooser is a pure
// function of (numVars, numObjs): small constraint systems go to the
// naive reference (it beats wave below the cutoff on every checked-in
// profile), large ones to wave. Running under Auto must be
// observationally identical to running the chosen engine explicitly —
// same digest, EngineName reporting the resolved choice.
//
//===----------------------------------------------------------------------===//

#include "pta/PointerAnalysis.h"
#include "pta/ResultDigest.h"

#include "workload/BenchmarkPrograms.h"

#include <gtest/gtest.h>

using namespace mahjong;
using namespace mahjong::pta;

TEST(EngineSelect, SmallSystemsPickNaive) {
  // A toy program: a few hundred vars, a handful of objects.
  EXPECT_EQ(chooseSolverEngine(/*NumVars=*/300, /*NumObjs=*/40),
            SolverEngine::Naive);
  EXPECT_EQ(chooseSolverEngine(0, 0), SolverEngine::Naive);
}

TEST(EngineSelect, LargeSystemsPickWave) {
  // The eclipse-at-full-scale class: wave (collapsing pays).
  EXPECT_EQ(chooseSolverEngine(/*NumVars=*/500'000, /*NumObjs=*/100'000),
            SolverEngine::Wave);
  EXPECT_EQ(chooseSolverEngine(/*NumVars=*/200'000, /*NumObjs=*/20'000),
            SolverEngine::Wave);
  // Far beyond every profile: still wave.
  EXPECT_EQ(chooseSolverEngine(/*NumVars=*/2'000'000, /*NumObjs=*/400'000),
            SolverEngine::Wave);
}

TEST(EngineSelect, ChoiceIsMonotoneInWork) {
  // Growing the system never moves the choice backwards toward naive:
  // scan a work ramp and require naive* -> wave*.
  bool SeenWave = false;
  for (uint64_t Vars = 1'000; Vars <= 3'000'000; Vars *= 2) {
    SolverEngine E = chooseSolverEngine(Vars, Vars / 8);
    if (E == SolverEngine::Wave)
      SeenWave = true;
    if (SeenWave) {
      EXPECT_NE(E, SolverEngine::Naive) << "regressed at " << Vars;
    }
  }
  EXPECT_TRUE(SeenWave);
}

TEST(EngineSelect, AutoRunMatchesExplicitChoiceBitForBit) {
  for (const char *Name : {"antlr", "eclipse"}) {
    SCOPED_TRACE(Name);
    auto P = workload::buildBenchmarkProgram(Name, 0.05);
    ir::ClassHierarchy CH(*P);

    AnalysisOptions AutoOpts;
    AutoOpts.Engine = SolverEngine::Auto;
    auto AutoR = runPointerAnalysis(*P, CH, AutoOpts);

    // EngineName reports the *resolved* engine, never "auto".
    EXPECT_TRUE(AutoR->EngineName == "naive" || AutoR->EngineName == "wave")
        << AutoR->EngineName;
    // The choice is reproducible (pure function of the program)...
    EXPECT_EQ(solverEngineName(chooseSolverEngine(*P)), AutoR->EngineName);

    // ...and running the named engine explicitly gives the identical
    // result.
    AnalysisOptions ExplicitOpts;
    ExplicitOpts.Engine = AutoR->EngineName == "naive" ? SolverEngine::Naive
                                                       : SolverEngine::Wave;
    auto ExplicitR = runPointerAnalysis(*P, CH, ExplicitOpts);
    EXPECT_EQ(ExplicitR->EngineName, AutoR->EngineName);
    EXPECT_EQ(canonicalResultDigest(*ExplicitR),
              canonicalResultDigest(*AutoR));
  }
}

TEST(EngineSelect, ExplicitEnginesReportTheirOwnName) {
  auto P = workload::buildBenchmarkProgram("antlr", 0.04);
  ir::ClassHierarchy CH(*P);
  const std::pair<SolverEngine, const char *> Cases[] = {
      {SolverEngine::Wave, "wave"},
      {SolverEngine::Naive, "naive"},
  };
  for (auto [Engine, Expected] : Cases) {
    AnalysisOptions Opts;
    Opts.Engine = Engine;
    auto R = runPointerAnalysis(*P, CH, Opts);
    EXPECT_EQ(R->EngineName, Expected);
  }
}
