//===-- pta/CallGraph.h - On-the-fly call graph ---------------*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The call graph the solver discovers on the fly. Edges are stored
/// context-sensitively ((caller context, call site) -> cs-method) and can
/// be projected context-insensitively for the type-dependent clients,
/// matching how Doop reports "#call graph edges".
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_PTA_CALLGRAPH_H
#define MAHJONG_PTA_CALLGRAPH_H

#include "ir/Program.h"
#include "pta/Context.h"
#include "support/FlatHash.h"
#include "support/Interner.h"

#include <unordered_map>
#include <vector>

namespace mahjong::pta {

/// A context-sensitive call site: a (caller context, call site) pair.
using CSSiteId = Id<struct CSSiteTag>;

/// Context-sensitive call graph with CI projections.
class CallGraph {
public:
  /// Interns the cs call site (\p CallerCtx, \p Site). The solver interns
  /// it once per receiver delta, not once per edge it adds there.
  CSSiteId csSite(ContextId CallerCtx, CallSiteId Site) {
    return CSSites.intern((static_cast<uint64_t>(CallerCtx.idx()) << 32) |
                          Site.idx());
  }

  /// Records the edge \p CSSite -> \p CSCallee, the cs-method (callee
  /// context, \p Callee) as interned by the solver's CSManager.
  /// \returns true if the context-sensitive edge is new.
  bool addEdge(CSSiteId CSSite, CSMethodId CSCallee, MethodId Callee);

  /// Number of distinct context-sensitive edges.
  uint64_t numCSEdges() const { return CSEdges.size(); }

  /// Number of distinct (call site -> method) edges, the paper's
  /// "#call graph edges" metric.
  uint64_t numCIEdges() const { return CIEdges.size(); }

  /// Distinct context-insensitive callee methods of \p Site.
  const std::vector<MethodId> &calleesOf(CallSiteId Site) const;

  /// All call sites with at least one edge.
  std::vector<CallSiteId> callSitesWithEdges() const;

private:
  FlatMap64 CSEdges; ///< packed (cs call site, cs callee)
  FlatMap64 CIEdges; ///< packed (site, method)
  std::unordered_map<uint32_t, std::vector<MethodId>> SiteTargets;
  /// (caller context, site) interning, for the 64-bit cs edge key.
  Interner<CSSiteId, uint64_t> CSSites;
};

} // namespace mahjong::pta

#endif // MAHJONG_PTA_CALLGRAPH_H
