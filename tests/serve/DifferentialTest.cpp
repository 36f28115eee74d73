//===-- tests/serve/DifferentialTest.cpp -------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The snapshot losslessness guarantee, verified exhaustively: for every
// workload profile, analyze -> save -> load -> the QueryEngine must answer
// every query identically to the live PTAResult and the in-memory clients.
// Covered per profile:
//
//   - points-to of EVERY variable (vs. R.ciVarPts via describeObj),
//   - cast-may-fail of EVERY cast site (vs. clients::castMayFail),
//   - devirt of EVERY call site with edges (vs. CallGraph::calleesOf),
//   - callers/callees of EVERY method (vs. the CI call graph),
//   - may-alias over a deterministic sample of variable pairs
//     (vs. clients::mayAlias).
//
// This goes through the full binary encode/decode path, not just
// buildSnapshot, so encoding bugs cannot hide behind the in-memory model.
//
//===----------------------------------------------------------------------===//

#include "clients/Clients.h"
#include "pta/CallGraph.h"
#include "serve/QueryEngine.h"
#include "support/Hashing.h"
#include "workload/BenchmarkPrograms.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

using namespace mahjong;
using namespace mahjong::serve;

namespace {

class SnapshotDifferentialTest
    : public testing::TestWithParam<std::string> {};

/// Decodes through the real byte format and serves from the result.
std::shared_ptr<const SnapshotData> roundTrip(const pta::PTAResult &R) {
  std::string Bytes = encodeSnapshot(buildSnapshot(R));
  std::string Err;
  auto D = decodeSnapshot(Bytes, Err);
  EXPECT_TRUE(D != nullptr) << Err;
  if (!D)
    std::abort();
  return std::shared_ptr<const SnapshotData>(std::move(D));
}

std::string varKeyOf(const ir::Program &P, VarId V) {
  return P.method(P.var(V).Method).Signature + "::" + P.var(V).Name;
}

void checkProfile(const std::string &Name) {
  auto P = workload::buildBenchmarkProgram(Name, /*Scale=*/0.05);
  ir::ClassHierarchy CH(*P);
  pta::AnalysisOptions Opts;
  auto R = pta::runPointerAnalysis(*P, CH, Opts);
  ASSERT_TRUE(R != nullptr);

  QueryEngine E(roundTrip(*R));

  // --- Every variable's points-to set. ---
  for (uint32_t Raw = 0; Raw < P->numVars(); ++Raw) {
    VarId V(Raw);
    std::vector<std::string> Expected;
    for (uint32_t O : R->ciVarPts(V))
      Expected.push_back(P->describeObj(ObjId(O)));
    QueryResult Got = E.run("points-to " + varKeyOf(*P, V));
    ASSERT_TRUE(Got.Ok) << Got.Error;
    ASSERT_EQ(Got.items(), Expected) << Name << " var " << varKeyOf(*P, V);
  }

  // --- Every cast site's verdict. ---
  for (uint32_t C = 0; C < P->numCastSites(); ++C) {
    bool Expected = clients::castMayFail(*R, C);
    QueryResult Got = E.run("cast-may-fail " + std::to_string(C));
    ASSERT_TRUE(Got.Ok) << Got.Error;
    ASSERT_TRUE(Got.HasVerdict);
    ASSERT_EQ(Got.Verdict, Expected) << Name << " cast " << C;
  }

  // --- Every call site's callee set. ---
  for (uint32_t S = 0; S < P->numCallSites(); ++S) {
    std::vector<std::string> Expected;
    for (MethodId M : R->CG.calleesOf(CallSiteId(S)))
      Expected.push_back(P->method(M).Signature);
    std::sort(Expected.begin(), Expected.end());
    QueryResult Got = E.run("devirt " + std::to_string(S));
    ASSERT_TRUE(Got.Ok) << Got.Error;
    ASSERT_EQ(Got.items(), Expected) << Name << " site " << S;
  }

  // --- Every method's callers and callees. ---
  std::map<std::string, std::set<std::string>> Callees, Callers;
  for (CallSiteId S : R->CG.callSitesWithEdges()) {
    const std::string &From =
        P->method(P->callSite(S).Enclosing).Signature;
    for (MethodId M : R->CG.calleesOf(S)) {
      Callees[From].insert(P->method(M).Signature);
      Callers[P->method(M).Signature].insert(From);
    }
  }
  for (uint32_t M = 0; M < P->numMethods(); ++M) {
    const std::string &Sig = P->method(MethodId(M)).Signature;
    auto AsVector = [](const std::set<std::string> &S) {
      return std::vector<std::string>(S.begin(), S.end());
    };
    QueryResult Got = E.run("callees " + Sig);
    ASSERT_TRUE(Got.Ok) << Got.Error;
    ASSERT_EQ(Got.items(), AsVector(Callees[Sig])) << Name << " " << Sig;
    Got = E.run("callers " + Sig);
    ASSERT_TRUE(Got.Ok) << Got.Error;
    ASSERT_EQ(Got.items(), AsVector(Callers[Sig])) << Name << " " << Sig;
  }

  // --- A deterministic sample of alias pairs (all pairs is quadratic). ---
  uint64_t Rng = fnv1a64(Name);
  unsigned Pairs = std::min<unsigned>(400, P->numVars() * 2);
  for (unsigned I = 0; I < Pairs; ++I) {
    Rng = splitmix64(Rng);
    VarId A(static_cast<uint32_t>(Rng % P->numVars()));
    Rng = splitmix64(Rng);
    VarId B(static_cast<uint32_t>(Rng % P->numVars()));
    bool Expected = clients::mayAlias(*R, A, B);
    QueryResult Got = E.run("alias " + varKeyOf(*P, A) + " " +
                            varKeyOf(*P, B));
    ASSERT_TRUE(Got.Ok) << Got.Error;
    ASSERT_EQ(Got.Verdict, Expected)
        << Name << " alias " << varKeyOf(*P, A) << " " << varKeyOf(*P, B);
  }
}

} // namespace

TEST_P(SnapshotDifferentialTest, EngineMatchesLiveResult) {
  checkProfile(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, SnapshotDifferentialTest,
    testing::ValuesIn(workload::benchmarkNames()),
    [](const testing::TestParamInfo<std::string> &Info) {
      return Info.param;
    });
