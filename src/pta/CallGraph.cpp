//===-- pta/CallGraph.cpp - On-the-fly call graph ---------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pta/CallGraph.h"

#include <algorithm>

using namespace mahjong;
using namespace mahjong::pta;

bool CallGraph::addEdge(ContextId CallerCtx, CallSiteId Site,
                        CSMethodId CSCallee, MethodId Callee) {
  uint64_t CSSiteKey =
      (static_cast<uint64_t>(CallerCtx.idx()) << 32) | Site.idx();
  uint32_t SiteId = CSSites.intern(CSSiteKey).idx();
  if (!CSEdges.insert((static_cast<uint64_t>(SiteId) << 32) | CSCallee.idx()))
    return false;
  uint64_t CIKey = (static_cast<uint64_t>(Site.idx()) << 32) | Callee.idx();
  if (CIEdges.insert(CIKey))
    SiteTargets[Site.idx()].push_back(Callee);
  return true;
}

const std::vector<MethodId> &CallGraph::calleesOf(CallSiteId Site) const {
  static const std::vector<MethodId> None;
  auto It = SiteTargets.find(Site.idx());
  return It == SiteTargets.end() ? None : It->second;
}

std::vector<CallSiteId> CallGraph::callSitesWithEdges() const {
  std::vector<CallSiteId> Sites;
  Sites.reserve(SiteTargets.size());
  for (const auto &[Site, Targets] : SiteTargets)
    Sites.push_back(CallSiteId(Site));
  std::sort(Sites.begin(), Sites.end());
  return Sites;
}
