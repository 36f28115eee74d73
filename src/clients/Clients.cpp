//===-- clients/Clients.cpp - Type-dependent clients ------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "clients/Clients.h"

#include <sstream>

using namespace mahjong;
using namespace mahjong::clients;
using namespace mahjong::ir;
using namespace mahjong::pta;

bool mahjong::clients::castMayFail(const PTAResult &R, uint32_t CastIdx) {
  const CastSiteInfo &CS = R.P.castSite(CastIdx);
  MethodId M = CS.Enclosing;
  for (ContextId C : R.MethodCtxs[M.idx()]) {
    const PointsToSet *Set = R.varPts(C, CS.From);
    if (!Set)
      continue;
    for (uint32_t Raw : *Set) {
      TypeId T = R.typeOfCSObj(Raw);
      if (R.P.type(T).Kind == TypeKind::Null)
        continue; // casting null always succeeds
      if (!R.CH.isSubtype(T, CS.Target))
        return true;
    }
  }
  return false;
}

std::vector<MethodId> mahjong::clients::virtualTargets(const PTAResult &R,
                                                       CallSiteId Site) {
  return R.CG.calleesOf(Site);
}

ClientResults mahjong::clients::evaluateClients(const PTAResult &R) {
  ClientResults CR;
  CR.CallGraphEdges = R.CG.numCIEdges();
  for (bool Reach : R.ReachableMethod)
    CR.ReachableMethods += Reach;

  // Devirtualization: classify every reachable virtual call site.
  for (uint32_t I = 0; I < R.P.numCallSites(); ++I) {
    CallSiteId Site = CallSiteId(I);
    const CallSiteInfo &CS = R.P.callSite(Site);
    if (CS.Kind != CallKind::Virtual)
      continue;
    size_t Targets = R.CG.calleesOf(Site).size();
    if (Targets >= 2)
      ++CR.PolyCallSites;
    else if (Targets == 1)
      ++CR.MonoCallSites;
  }

  // May-fail casting over casts in reachable code.
  for (uint32_t I = 0; I < R.P.numCastSites(); ++I) {
    MethodId M = R.P.castSite(I).Enclosing;
    if (!R.ReachableMethod[M.idx()])
      continue;
    ++CR.TotalCasts;
    if (castMayFail(R, I))
      ++CR.MayFailCasts;
  }
  return CR;
}

/// Whether two projected sets share an object other than o_null.
static bool shareNonNull(const PTAResult &R, const PointsToSet &PA,
                         const PointsToSet &PB) {
  for (uint32_t Raw : PA) {
    if (R.P.isNullObj(ObjId(Raw)))
      continue; // both being null is not considered aliasing
    if (PB.contains(Raw))
      return true;
  }
  return false;
}

bool mahjong::clients::mayAlias(const PTAResult &R, VarId A, VarId B) {
  return shareNonNull(R, R.ciVarPts(A), R.ciVarPts(B));
}

uint64_t mahjong::clients::countAliasedLocalPairs(const PTAResult &R,
                                                  MethodId M) {
  // Each local is projected once, not once per pair.
  std::vector<PointsToSet> Pts;
  for (uint32_t I = 0; I < R.P.numVars(); ++I)
    if (R.P.var(VarId(I)).Method == M)
      Pts.push_back(R.ciVarPts(VarId(I)));
  uint64_t Pairs = 0;
  for (size_t I = 0; I < Pts.size(); ++I)
    for (size_t J = I + 1; J < Pts.size(); ++J)
      Pairs += shareNonNull(R, Pts[I], Pts[J]);
  return Pairs;
}

std::string mahjong::clients::toString(const ClientResults &CR) {
  std::ostringstream OS;
  OS << "edges=" << CR.CallGraphEdges << " reach=" << CR.ReachableMethods
     << " poly=" << CR.PolyCallSites << " mono=" << CR.MonoCallSites
     << " mayfail=" << CR.MayFailCasts << "/" << CR.TotalCasts;
  return OS.str();
}
