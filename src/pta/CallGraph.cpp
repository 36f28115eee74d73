//===-- pta/CallGraph.cpp - On-the-fly call graph ---------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pta/CallGraph.h"

#include <algorithm>

using namespace mahjong;
using namespace mahjong::pta;

bool CallGraph::addEdge(CSSiteId CSSite, CSMethodId CSCallee,
                        MethodId Callee) {
  if (!CSEdges.insert((static_cast<uint64_t>(CSSite.idx()) << 32) |
                      CSCallee.idx()))
    return false;
  uint32_t Site = static_cast<uint32_t>(CSSites.get(CSSite));
  uint64_t CIKey = (static_cast<uint64_t>(Site) << 32) | Callee.idx();
  if (CIEdges.insert(CIKey))
    SiteTargets[Site].push_back(Callee);
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
