//===-- tests/pta/SetRepEquivalenceTest.cpp ----------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The set-representation backends are pure representation swaps: every
// (engine, backend) pair must compute the bit-identical solution on the
// canonical form, across all workload profiles. Alongside the digest
// race, the SetBytes accounting contract is pinned:
//
//  - SetBytes == the sum of liveBytes over the final solution;
//  - the hierarchy backend's SetBytes is strictly engine-invariant (its
//    prepare() pins cs-object numbering, so chunk packing is a pure
//    function of the solution); under the discovery-order chunked
//    backend naive's packing may differ from wave's by a few chunks.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "pta/ResultDigest.h"
#include "pta/SetRep.h"
#include "workload/BenchmarkPrograms.h"

#include <gtest/gtest.h>

using namespace mahjong;
using namespace mahjong::pta;
using namespace mahjong::test;

namespace {

constexpr SetRep Reps[] = {SetRep::Chunked, SetRep::Hierarchy};
constexpr SolverEngine EnginesUnderTest[] = {SolverEngine::Naive,
                                             SolverEngine::Wave};

std::unique_ptr<PTAResult> run(const ir::Program &P,
                               const ir::ClassHierarchy &CH, SolverEngine E,
                               SetRep Rep, ContextKind Kind = ContextKind::Insensitive,
                               unsigned K = 0) {
  AnalysisOptions Opts;
  Opts.Kind = Kind;
  Opts.K = K;
  Opts.Engine = E;
  Opts.Rep = Rep;
  return runPointerAnalysis(P, CH, Opts);
}

} // namespace

class SetRepProfile : public ::testing::TestWithParam<std::string> {};

TEST_P(SetRepProfile, AllBackendsAllEnginesAgreeOnCI) {
  auto P = workload::buildBenchmarkProgram(GetParam(), 0.04);
  ir::ClassHierarchy CH(*P);
  uint64_t RefDigest = 0;
  bool HaveRef = false;
  for (SetRep Rep : Reps) {
    // Per backend, SetBytes per engine. Hierarchy pins cs-object
    // numbering in prepare(), so both engines must report the same bytes;
    // chunked inherits each engine's discovery order.
    uint64_t WaveSetBytes = 0, NaiveSetBytes = 0;
    for (SolverEngine E : EnginesUnderTest) {
      auto R = run(*P, CH, E, Rep);
      std::string Label = GetParam() + "/" + solverEngineName(E) + "/" +
                          setRepName(Rep);
      EXPECT_EQ(R->SetRepName, setRepName(Rep)) << Label;
      uint64_t D = canonicalResultDigest(*R);
      if (!HaveRef) {
        RefDigest = D;
        HaveRef = true;
      }
      EXPECT_EQ(D, RefDigest) << Label;
      uint64_t SumLive = 0;
      for (const PointsToSet &S : R->Pts)
        SumLive += S.liveBytes();
      EXPECT_EQ(R->Stats.SetBytes, SumLive) << Label;
      if (E == SolverEngine::Naive)
        NaiveSetBytes = R->Stats.SetBytes;
      else
        WaveSetBytes = R->Stats.SetBytes;
    }
    if (Rep == SetRep::Hierarchy) {
      EXPECT_EQ(NaiveSetBytes, WaveSetBytes)
          << GetParam() << "/hierarchy: pinned numbering must make "
                           "SetBytes engine-invariant";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, SetRepProfile,
    ::testing::ValuesIn(workload::benchmarkNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

TEST(SetRepEquivalence, ContextSensitivePoliciesAgreeAcrossBackends) {
  // Context-sensitive heaps exercise what ci cannot: hierarchy overflow
  // objects born after the ranked block.
  auto P = workload::buildBenchmarkProgram("fop", 0.03);
  ir::ClassHierarchy CH(*P);
  for (auto [Kind, K] : {std::pair{ContextKind::Object, 2u},
                         std::pair{ContextKind::CallSite, 2u},
                         std::pair{ContextKind::Type, 3u}}) {
    uint64_t RefDigest = 0;
    bool HaveRef = false;
    for (SetRep Rep : Reps) {
      auto R = run(*P, CH, SolverEngine::Wave, Rep, Kind, K);
      uint64_t D = canonicalResultDigest(*R);
      if (!HaveRef) {
        RefDigest = D;
        HaveRef = true;
      }
      EXPECT_EQ(D, RefDigest)
          << analysisName(Kind, K) << "/" << setRepName(Rep);
    }
  }
}

TEST(SetRepEquivalence, CastHeavyProgramFiltersIdentically) {
  // A small program whose precision hinges entirely on cast filtering:
  // every backend must keep U out of the (T) downcast, through every
  // engine.
  constexpr const char *Src = R"(
    class T { }
    class S extends T { }
    class U { }
    class Main {
      static method main() {
        a = new T;
        b = new S;
        c = new U;
        x = a;
        x = b;
        x = c;
        t = (T) x;
        s = (S) x;
      }
    }
  )";
  auto P = parseOrDie(Src);
  ir::ClassHierarchy CH(*P);
  for (SetRep Rep : Reps)
    for (SolverEngine E : EnginesUnderTest) {
      auto R = run(*P, CH, E, Rep);
      std::string Label = std::string(solverEngineName(E)) + "/" +
                          setRepName(Rep);
      EXPECT_EQ(pointeeTypes(*R, "Main.main/0", "t"),
                (std::vector<std::string>{"S", "T"}))
          << Label;
      EXPECT_EQ(pointeeTypes(*R, "Main.main/0", "s"),
                (std::vector<std::string>{"S"}))
          << Label;
    }
}

TEST(SetRepEquivalence, FilterBuiltBeforeAContextSensitiveObjectAdmitsIt) {
  // The receiver of c.make() only arrives through the (Box) cast, so the
  // wave engine builds Box's filter before make() runs. Each make() then
  // allocates a Box under a heap context that did not exist when the
  // filter was built, and that object flows back through the same cast.
  // The filter must admit it, as the naive engine's per-element check
  // does: under 2obj, c must reach all three cs-objects of type Box.
  constexpr const char *Src = R"(
    class Box {
      method make() {
        o = new Box;
        return o;
      }
    }
    class Main {
      static method main() {
        b = new Box;
        x = b;
        c = (Box) x;
        y = c.make();
        x = y;
      }
    }
  )";
  auto P = parseOrDie(Src);
  ir::ClassHierarchy CH(*P);
  VarId C = findVar(*P, "Main.main/0", "c");
  for (SetRep Rep : Reps) {
    uint64_t Digest[2] = {0, 0};
    for (int I = 0; I < 2; ++I) {
      SolverEngine E = EnginesUnderTest[I];
      auto R = run(*P, CH, E, Rep, ContextKind::Object, 2);
      std::string Label = std::string(solverEngineName(E)) + "/" +
                          setRepName(Rep);
      Digest[I] = canonicalResultDigest(*R);
      const PointsToSet *CPts = R->varPts(R->Ctxs.empty(), C);
      ASSERT_NE(CPts, nullptr) << Label;
      EXPECT_EQ(CPts->size(), 3u) << Label;
    }
    EXPECT_EQ(Digest[0], Digest[1]) << setRepName(Rep);
  }
}
