//===-- pta/ResultDigest.cpp - Canonical PTAResult comparison ---------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pta/ResultDigest.h"

#include "support/Hashing.h"

#include <algorithm>

using namespace mahjong;
using namespace mahjong::ir;
using namespace mahjong::pta;

namespace {

void appendCtx(std::string &S, const ContextTable &T, ContextId C) {
  S += '[';
  bool First = true;
  for (CtxElem E : T.elems(C)) {
    if (!First)
      S += ',';
    First = false;
    S += std::to_string(E);
  }
  S += ']';
}

/// A raw points-to element as "(heap-context)o<base-obj>" — both parts
/// are stable across discovery orders.
std::string objToken(const PTAResult &R, uint32_t Raw) {
  auto [HCtx, O] = R.CSM.objOf(CSObjId(Raw));
  std::string S;
  appendCtx(S, R.Ctxs, HCtx);
  S += 'o';
  S += std::to_string(O.idx());
  return S;
}

void appendSet(std::string &Line, const PTAResult &R, const PointsToSet &Set) {
  std::vector<std::string> Objs;
  Objs.reserve(Set.size());
  for (uint32_t Raw : Set)
    Objs.push_back(objToken(R, Raw));
  std::sort(Objs.begin(), Objs.end());
  Line += " {";
  for (const std::string &O : Objs) {
    Line += ' ';
    Line += O;
  }
  Line += " }";
}

} // namespace

std::vector<std::string>
mahjong::pta::canonicalResultLines(const PTAResult &R) {
  std::vector<std::string> Lines;

  for (uint32_t MI = 0; MI < R.P.numMethods(); ++MI)
    if (R.ReachableMethod[MI])
      Lines.push_back("reach " + R.P.method(MethodId(MI)).Signature);

  for (CallSiteId Site : R.CG.callSitesWithEdges())
    for (MethodId Callee : R.CG.calleesOf(Site))
      Lines.push_back("call s" + std::to_string(Site.idx()) + " -> " +
                      R.P.method(Callee).Signature);
  Lines.push_back("cs-edges " + std::to_string(R.CG.numCSEdges()));

  for (uint32_t VI = 0; VI < R.P.numVars(); ++VI) {
    VarId V(VI);
    MethodId M = R.P.var(V).Method;
    for (ContextId C : R.MethodCtxs[M.idx()]) {
      const PointsToSet *Pts = R.varPts(C, V);
      if (!Pts || Pts->empty())
        continue;
      std::string Line = "pts ";
      appendCtx(Line, R.Ctxs, C);
      Line += " v" + std::to_string(VI) + " ->";
      appendSet(Line, R, *Pts);
      Lines.push_back(std::move(Line));
    }
  }

  R.forEachFieldPts([&](CSObjId O, FieldId F, const PointsToSet &Pts) {
    std::string Line = "fpts " + objToken(R, O.idx()) + " f" +
                       std::to_string(F.idx()) + " ->";
    appendSet(Line, R, Pts);
    Lines.push_back(std::move(Line));
  });

  for (uint32_t I = 0; I < R.Nodes.size(); ++I) {
    uint64_t Key = R.Nodes.get(PtrNodeId(I));
    if (PTAResult::kindOf(Key) != PTAResult::KindStatic || R.Pts[I].empty())
      continue;
    std::string Line =
        "spts f" + std::to_string(PTAResult::staticFieldOf(Key).idx()) + " ->";
    appendSet(Line, R, R.Pts[I]);
    Lines.push_back(std::move(Line));
  }

  std::sort(Lines.begin(), Lines.end());
  return Lines;
}

namespace {

uint64_t mixInt(uint64_t H, uint64_t V) {
  H ^= V;
  return H * 1099511628211ull;
}

/// Stable hash of one raw points-to element: its heap-context contents
/// plus the base allocation-site id — both independent of the engine's
/// interning order (the raw id itself is not).
uint64_t stableObjHash(const PTAResult &R, uint32_t Raw) {
  auto [HCtx, O] = R.CSM.objOf(CSObjId(Raw));
  uint64_t H = 1469598103934665603ull;
  for (CtxElem E : R.Ctxs.elems(HCtx))
    H = mixInt(H, E + 1);
  return mixInt(H, uint64_t(O.idx()) | (1ull << 40));
}

/// Order-insensitive set fingerprint: wrapping sum of per-element
/// hashes, so two engines delivering the elements in different raw-id
/// orders (or different raw numberings) agree.
uint64_t setHash(const PTAResult &R, const PointsToSet &Set) {
  uint64_t Acc = 0;
  for (uint32_t Raw : Set)
    Acc += splitmix64(stableObjHash(R, Raw));
  return Acc;
}

} // namespace

uint64_t mahjong::pta::canonicalResultDigest(const PTAResult &R) {
  // Same facts as canonicalResultLines, but streamed: one stable 64-bit
  // hash per fact, combined by wrapping sum (commutative, so fact order
  // does not matter and no sort is needed). The text form allocates a
  // string per set element, which on the full-scale profiles means
  // minutes per digest; this path digests the same content with zero
  // allocations.
  uint64_t Digest = 0;
  auto Fact = [&](uint64_t H) { Digest += splitmix64(H); };

  for (uint32_t MI = 0; MI < R.P.numMethods(); ++MI)
    if (R.ReachableMethod[MI])
      Fact(mixInt(1, MI));

  for (CallSiteId Site : R.CG.callSitesWithEdges())
    for (MethodId Callee : R.CG.calleesOf(Site))
      Fact(mixInt(mixInt(2, Site.idx()), Callee.idx()));
  Fact(mixInt(3, R.CG.numCSEdges()));

  for (uint32_t VI = 0; VI < R.P.numVars(); ++VI) {
    VarId V(VI);
    MethodId M = R.P.var(V).Method;
    for (ContextId C : R.MethodCtxs[M.idx()]) {
      const PointsToSet *Pts = R.varPts(C, V);
      if (!Pts || Pts->empty())
        continue;
      uint64_t H = mixInt(4, VI);
      for (CtxElem E : R.Ctxs.elems(C))
        H = mixInt(H, E + 1);
      Fact(mixInt(H, setHash(R, *Pts)));
    }
  }

  R.forEachFieldPts([&](CSObjId O, FieldId F, const PointsToSet &Pts) {
    uint64_t H = mixInt(mixInt(5, F.idx()), stableObjHash(R, O.idx()));
    Fact(mixInt(H, setHash(R, Pts)));
  });

  for (uint32_t I = 0; I < R.Nodes.size(); ++I) {
    uint64_t Key = R.Nodes.get(PtrNodeId(I));
    if (PTAResult::kindOf(Key) != PTAResult::KindStatic || R.Pts[I].empty())
      continue;
    Fact(mixInt(mixInt(6, PTAResult::staticFieldOf(Key).idx()),
                setHash(R, R.Pts[I])));
  }

  return Digest;
}

bool mahjong::pta::equivalentResults(const PTAResult &A, const PTAResult &B,
                                     std::string *FirstDiff) {
  std::vector<std::string> LA = canonicalResultLines(A);
  std::vector<std::string> LB = canonicalResultLines(B);
  size_t N = std::min(LA.size(), LB.size());
  for (size_t I = 0; I < N; ++I) {
    if (LA[I] == LB[I])
      continue;
    if (FirstDiff)
      *FirstDiff = "A: " + LA[I] + "\nB: " + LB[I];
    return false;
  }
  if (LA.size() != LB.size()) {
    if (FirstDiff) {
      const auto &Longer = LA.size() > LB.size() ? LA : LB;
      *FirstDiff = std::string(LA.size() > LB.size() ? "only in A: "
                                                     : "only in B: ") +
                   Longer[N];
    }
    return false;
  }
  return true;
}
