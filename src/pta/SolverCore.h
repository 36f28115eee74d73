//===-- pta/SolverCore.h - Shared solver statement machinery --*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine-independent half of the points-to solver: reachability,
/// statement expansion, virtual dispatch, and on-the-fly call processing.
/// Both propagation engines — the wave engine (Solver.h) and the retained
/// textbook reference (NaiveSolver.h) — derive from this core and supply
/// storage, edge management and scheduling through the virtual hooks, so
/// any semantic difference between the two engines can only come from the
/// propagation core itself, which is exactly what the differential tests
/// compare.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_PTA_SOLVERCORE_H
#define MAHJONG_PTA_SOLVERCORE_H

#include "pta/PointerAnalysis.h"
#include "pta/SetBackend.h"
#include "support/FlatHash.h"

#include <utility>
#include <vector>

namespace mahjong::pta {

/// A dispatch result as stored in a FlatMap64: the raw id plus one, so a
/// call with no callee (the invalid id, whose raw value is the table's
/// empty sentinel) is cached as 0.
inline uint32_t encodeCallee(MethodId M) { return M.raw() + 1u; }
inline MethodId decodeCallee(uint32_t Stored) {
  return Stored == 0 ? MethodId::invalid() : MethodId(Stored - 1u);
}

/// One fixpoint computation. Construct an engine, call run(), read the
/// PTAResult.
class SolverCore {
public:
  SolverCore(const ir::Program &P, const ir::ClassHierarchy &CH,
             const HeapAbstraction &Heap, ContextSelector &Selector,
             SetRepOps &Ops, PTAResult &R, double TimeBudgetSeconds);
  virtual ~SolverCore() = default;

  /// Runs to fixpoint. \returns false if the time budget was exhausted.
  virtual bool run() = 0;

protected:
  // --- Engine hooks ---

  /// Grows the engine's per-node arrays (and R.Pts) to cover index \p Idx.
  virtual void ensureNodeStorage(uint32_t Idx) = 0;

  /// Adds the PFG edge Src -> Dst (deduplicated) and seeds Dst with Src's
  /// current points-to set.
  virtual void addEdge(PtrNodeId Src, PtrNodeId Dst,
                       TypeId Filter = TypeId()) = 0;

  /// Injects \p Delta into node \p N: allocation seeds, null seeds and
  /// receiver binding.
  virtual void seedDelta(PtrNodeId N, PointsToSet &&Delta) = 0;

  // --- Shared services ---

  PtrNodeId node(uint64_t Key);
  PtrNodeId varNode(ContextId C, VarId V);
  PtrNodeId fieldNode(CSObjId O, FieldId F);
  PtrNodeId staticNode(FieldId F);

  /// Makes \p M reachable under \p C (the entry method).
  void addReachable(ContextId C, MethodId M);

  /// Interns the cs-method (\p C, \p M) and grows CSMethodNodes to cover
  /// it. \returns its id and whether it is new.
  std::pair<CSMethodId, bool> internCSMethod(ContextId C, MethodId M);

  /// The caller-side nodes a call's wiring reads: the call's result
  /// variable and the enclosing method's $exc, each fetched on first use.
  /// Both depend on the caller context and the call site, so one is
  /// valid for one receiver delta or one static call, no longer.
  struct CallerNodes {
    PtrNodeId Result, Exc;
  };

  /// Adds the call-graph edge \p CSSite -> \p CM, where \p IsNew says
  /// whether internCSMethod just interned \p CM. A new edge expands a new
  /// callee and wires arguments, return value and exception between the
  /// caller context \p C and the callee.
  void linkCall(ContextId C, const ir::CallSiteInfo &CS, CSSiteId CSSite,
                CSMethodId CM, bool IsNew, CallerNodes &Caller);

  /// varNode(C, V), cached in \p Slot on first use.
  PtrNodeId cachedVarNode(PtrNodeId &Slot, ContextId C, VarId V) {
    if (!Slot.isValid())
      Slot = varNode(C, V);
    return Slot;
  }

  /// Expands the statements of \p M under \p C; runs once per cs-method,
  /// when it is first interned.
  void expandMethod(ContextId C, MethodId M);

  void processStaticCall(ContextId C, CallSiteId Site);
  void onVarGrowth(ContextId C, VarId V, const PointsToSet &Delta);

  /// Dispatches every new receiver of \p Site in \p Delta, grouping the
  /// receivers by (callee, callee-context) so each group pays for the
  /// this-binding, call-graph edge and arg/ret wiring once instead of
  /// once per receiver object. What is the same for every group — the cs
  /// call site and the caller-side nodes — is fetched once per delta.
  void processCallsOnDelta(ContextId C, CallSiteId Site,
                           const PointsToSet &Delta);
  MethodId dispatch(TypeId RecvType, CallSiteId Site);

  /// Fills the engine-independent PTAStats counters (contexts, cs
  /// entities, reachability, var-pts volume, set bytes).
  void finalizeStats();

  const ir::Program &P;
  const ir::ClassHierarchy &CH;
  const HeapAbstraction &Heap;
  ContextSelector &Selector;
  SetRepOps &Ops; ///< cs-object numbering and cast filters
  PTAResult &R;
  double TimeBudget;

  /// Per-variable structural usage (loads/stores/calls with this base),
  /// built once up front.
  struct VarUsage {
    std::vector<const ir::Stmt *> Loads;
    std::vector<const ir::Stmt *> Stores;
    std::vector<CallSiteId> Calls;
  };
  std::vector<VarUsage> Usage;

  /// The pointer node of each cs-variable, indexed by CSVarId: one array
  /// read in place of a second table lookup on every varNode().
  std::vector<PtrNodeId> VarNodes;

  /// The callee-side nodes every call edge into a cs-method wires:
  /// 'this', the return slot and $exc, indexed by CSMethodId. Each is
  /// fetched on its own first use, not all three at once, so node ids
  /// keep the order in which the wiring first asks for them.
  struct CalleeNodes {
    PtrNodeId This, Ret, Exc;
  };
  std::vector<CalleeNodes> CSMethodNodes;

  /// (receiver type, call site) -> encodeCallee(callee).
  FlatMap64 DispatchCache;

  /// Scratch state of processCallsOnDelta, kept as members so their
  /// storage survives across calls; BindIndex.clear() shrinks the table
  /// after an outsized delta, so later small calls do not pay for it (the
  /// function is not reentrant: nothing downstream of it re-enters call
  /// processing).
  struct BindGroup {
    MethodId Callee;
    ContextId Ctx;
    PointsToSet Recvs;
  };
  std::vector<BindGroup> BindGroups;
  FlatMap64 BindIndex; ///< (callee, ctx) -> index into BindGroups
  uint32_t CSNullObjRaw = 0;
};

} // namespace mahjong::pta

#endif // MAHJONG_PTA_SOLVERCORE_H
