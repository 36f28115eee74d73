//===-- tests/pta/SetRepEquivalenceTest.cpp ----------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Both engines filter casts through the one SetRepOps structure and must
// compute the bit-identical solution on the canonical form, across all
// workload profiles and context policies. Alongside the digest race, the
// SetBytes accounting contract is pinned:
//
//  - SetBytes == the sum of liveBytes over the final solution;
//  - under ci SetBytes is strictly engine-invariant: every cs-object is
//    in the ranked block, so its numbering is fixed before the solve and
//    chunk packing is a pure function of the solution.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "pta/ResultDigest.h"
#include "workload/BenchmarkPrograms.h"

#include <gtest/gtest.h>

using namespace mahjong;
using namespace mahjong::pta;
using namespace mahjong::test;

namespace {

constexpr SolverEngine EnginesUnderTest[] = {SolverEngine::Naive,
                                             SolverEngine::Wave};

std::unique_ptr<PTAResult> run(const ir::Program &P,
                               const ir::ClassHierarchy &CH, SolverEngine E,
                               ContextKind Kind = ContextKind::Insensitive,
                               unsigned K = 0) {
  AnalysisOptions Opts;
  Opts.Kind = Kind;
  Opts.K = K;
  Opts.Engine = E;
  return runPointerAnalysis(P, CH, Opts);
}

} // namespace

class SetRepProfile : public ::testing::TestWithParam<std::string> {};

TEST_P(SetRepProfile, AllBackendsAllEnginesAgreeOnCI) {
  auto P = workload::buildBenchmarkProgram(GetParam(), 0.04);
  ir::ClassHierarchy CH(*P);
  uint64_t Digest[2] = {0, 0}, SetBytes[2] = {0, 0};
  for (int I = 0; I < 2; ++I) {
    SolverEngine E = EnginesUnderTest[I];
    auto R = run(*P, CH, E);
    std::string Label = GetParam() + "/" + solverEngineName(E);
    Digest[I] = canonicalResultDigest(*R);
    uint64_t SumLive = 0;
    for (const PointsToSet &S : R->Pts)
      SumLive += S.liveBytes();
    EXPECT_EQ(R->Stats.SetBytes, SumLive) << Label;
    SetBytes[I] = R->Stats.SetBytes;
  }
  EXPECT_EQ(Digest[0], Digest[1]) << GetParam();
  EXPECT_EQ(SetBytes[0], SetBytes[1])
      << GetParam() << ": ranked numbering must make SetBytes "
                       "engine-invariant";
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, SetRepProfile,
    ::testing::ValuesIn(workload::benchmarkNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });

TEST(SetRepEquivalence, ContextSensitivePoliciesAgreeAcrossBackends) {
  // Context-sensitive heaps exercise what ci cannot: cs-objects born
  // after the ranked block, which the filters keep in their bitmaps.
  auto P = workload::buildBenchmarkProgram("fop", 0.03);
  ir::ClassHierarchy CH(*P);
  for (auto [Kind, K] : {std::pair{ContextKind::Object, 2u},
                         std::pair{ContextKind::CallSite, 2u},
                         std::pair{ContextKind::Type, 3u}}) {
    uint64_t Digest[2] = {0, 0};
    for (int I = 0; I < 2; ++I)
      Digest[I] = canonicalResultDigest(
          *run(*P, CH, EnginesUnderTest[I], Kind, K));
    EXPECT_EQ(Digest[0], Digest[1]) << analysisName(Kind, K);
  }
}

TEST(SetRepEquivalence, CastHeavyProgramFiltersIdentically) {
  // A small program whose precision hinges entirely on cast filtering:
  // every engine must keep U out of the (T) downcast.
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
  for (SolverEngine E : EnginesUnderTest) {
    auto R = run(*P, CH, E);
    EXPECT_EQ(pointeeTypes(*R, "Main.main/0", "t"),
              (std::vector<std::string>{"S", "T"}))
        << solverEngineName(E);
    EXPECT_EQ(pointeeTypes(*R, "Main.main/0", "s"),
              (std::vector<std::string>{"S"}))
        << solverEngineName(E);
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
  uint64_t Digest[2] = {0, 0};
  for (int I = 0; I < 2; ++I) {
    SolverEngine E = EnginesUnderTest[I];
    auto R = run(*P, CH, E, ContextKind::Object, 2);
    Digest[I] = canonicalResultDigest(*R);
    const PointsToSet *CPts = R->varPts(R->Ctxs.empty(), C);
    ASSERT_NE(CPts, nullptr) << solverEngineName(E);
    EXPECT_EQ(CPts->size(), 3u) << solverEngineName(E);
  }
  EXPECT_EQ(Digest[0], Digest[1]);
}
