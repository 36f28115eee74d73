//===-- pta/SolverCore.cpp - Shared solver statement machinery --------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pta/SolverCore.h"

using namespace mahjong;
using namespace mahjong::ir;
using namespace mahjong::pta;

SolverCore::SolverCore(const Program &P, const ClassHierarchy &CH,
                       const HeapAbstraction &Heap, ContextSelector &Selector,
                       SetRepOps &Ops, PTAResult &R, double TimeBudgetSeconds)
    : P(P), CH(CH), Heap(Heap), Selector(Selector), Ops(Ops), R(R),
      TimeBudget(TimeBudgetSeconds), Usage(P.numVars()) {
  // Build the structural per-variable usage index once: which loads,
  // stores and calls dereference each variable as their base.
  for (uint32_t MIdx = 0; MIdx < P.numMethods(); ++MIdx) {
    for (const Stmt &S : P.method(MethodId(MIdx)).Body) {
      switch (S.Kind) {
      case StmtKind::Load:
        Usage[S.Base.idx()].Loads.push_back(&S);
        break;
      case StmtKind::Store:
        Usage[S.Base.idx()].Stores.push_back(&S);
        break;
      case StmtKind::Invoke: {
        const CallSiteInfo &CS = P.callSite(S.Site);
        if (CS.Kind != CallKind::Static)
          Usage[CS.Base.idx()].Calls.push_back(S.Site);
        break;
      }
      default:
        break;
      }
    }
  }
  // The context-insensitive null object exists in every run. The
  // SetRepOps constructor already pre-interned it at rank 0, so this
  // lookup is a hit, not a new id. No filter exists yet,
  // so the filters need no notice: each sweeps it when it materializes.
  CSNullObjRaw = R.CSM.csObj(R.Ctxs.empty(), Program::nullObj()).idx();
}

PtrNodeId SolverCore::node(uint64_t Key) {
  PtrNodeId N = R.Nodes.intern(Key);
  ensureNodeStorage(N.idx());
  return N;
}

PtrNodeId SolverCore::varNode(ContextId C, VarId V) {
  // cs-variables are interned only here, so a new one gets its node at
  // once and VarNodes grows in step with the cs-variable ids.
  CSVarId CV = R.CSM.csVar(C, V);
  assert(CV.idx() <= VarNodes.size() && "cs-variable interned elsewhere");
  if (CV.idx() == VarNodes.size())
    VarNodes.push_back(node(PTAResult::varKey(CV)));
  return VarNodes[CV.idx()];
}

PtrNodeId SolverCore::fieldNode(CSObjId O, FieldId F) {
  return node(PTAResult::fieldKey(O, F));
}

PtrNodeId SolverCore::staticNode(FieldId F) {
  return node(PTAResult::staticKey(F));
}

MethodId SolverCore::dispatch(TypeId RecvType, CallSiteId Site) {
  uint64_t Key = (static_cast<uint64_t>(RecvType.idx()) << 32) | Site.idx();
  uint32_t Cached = DispatchCache.find(Key);
  if (Cached != FlatMap64::Empty)
    return decodeCallee(Cached);
  const CallSiteInfo &CS = P.callSite(Site);
  MethodId Callee = CS.Kind == CallKind::Virtual
                        ? CH.resolveVirtual(RecvType, CS.Sig)
                        : CS.Direct;
  DispatchCache.tryEmplace(Key, encodeCallee(Callee));
  return Callee;
}

void SolverCore::processCallsOnDelta(ContextId C, CallSiteId Site,
                                     const PointsToSet &Delta) {
  // Phase 1: dispatch each new receiver and bucket it by its (callee,
  // callee-context) pair. Context-insensitive and type-sensitive runs
  // funnel thousands of receivers into a handful of groups; fully
  // object-sensitive runs degenerate to one group per receiver, which
  // costs no more than per-receiver processing did.
  BindGroups.clear();
  BindIndex.clear();
  uint32_t LastGroup = UINT32_MAX;
  uint64_t LastKey = ~0ull;
  for (uint32_t Raw : Delta) {
    if (Raw == CSNullObjRaw)
      continue; // calls on null never dispatch
    auto [HCtx, RecvObj] = R.CSM.objOf(CSObjId(Raw));
    MethodId Callee = dispatch(P.obj(RecvObj).Type, Site);
    if (!Callee.isValid())
      continue;
    ContextId CalleeCtx = Selector.selectCallee(C, Site, HCtx, RecvObj);
    uint64_t Key =
        (static_cast<uint64_t>(Callee.idx()) << 32) | CalleeCtx.idx();
    if (Key != LastKey) {
      LastKey = Key;
      auto [Group, Inserted] =
          BindIndex.tryEmplace(Key, static_cast<uint32_t>(BindGroups.size()));
      if (Inserted)
        BindGroups.push_back({Callee, CalleeCtx, {}});
      LastGroup = Group;
    }
    BindGroups[LastGroup].Recvs.insert(Raw);
  }
  // Phase 2: one this-binding, call-graph edge and arg/ret wiring per
  // group. Every receiver of the group must flow into 'this' even when
  // the call-graph edge already existed. The cs call site and the
  // caller-side nodes are the same for every group, so they are fetched
  // once for the whole delta.
  if (BindGroups.empty())
    return;
  const CallSiteInfo &CS = P.callSite(Site);
  CSSiteId CSSite = R.CG.csSite(C, Site);
  CallerNodes Caller;
  for (BindGroup &G : BindGroups) {
    auto [CM, IsNew] = internCSMethod(G.Ctx, G.Callee);
    seedDelta(cachedVarNode(CSMethodNodes[CM.idx()].This, G.Ctx,
                            P.method(G.Callee).This),
              std::move(G.Recvs));
    linkCall(C, CS, CSSite, CM, IsNew, Caller);
  }
}

void SolverCore::onVarGrowth(ContextId C, VarId V, const PointsToSet &Delta) {
  const VarUsage &U = Usage[V.idx()];
  for (const Stmt *S : U.Loads) {
    PtrNodeId To = varNode(C, S->To);
    for (uint32_t Raw : Delta) {
      if (Raw == CSNullObjRaw)
        continue; // no fields on null
      addEdge(fieldNode(CSObjId(Raw), S->Field), To);
    }
  }
  for (const Stmt *S : U.Stores) {
    PtrNodeId From = varNode(C, S->From);
    for (uint32_t Raw : Delta) {
      if (Raw == CSNullObjRaw)
        continue;
      addEdge(From, fieldNode(CSObjId(Raw), S->Field));
    }
  }
  for (CallSiteId Site : U.Calls)
    processCallsOnDelta(C, Site, Delta);
}

void SolverCore::processStaticCall(ContextId C, CallSiteId Site) {
  const CallSiteInfo &CS = P.callSite(Site);
  ContextId CalleeCtx = Selector.selectStaticCallee(C, Site);
  auto [CM, IsNew] = internCSMethod(CalleeCtx, CS.Direct);
  CallerNodes Caller;
  linkCall(C, CS, R.CG.csSite(C, Site), CM, IsNew, Caller);
}

void SolverCore::addReachable(ContextId C, MethodId M) {
  if (internCSMethod(C, M).second)
    expandMethod(C, M);
}

std::pair<CSMethodId, bool> SolverCore::internCSMethod(ContextId C,
                                                       MethodId M) {
  // cs-method ids are dense in first-seen order, so a new one is not below
  // the count read before interning.
  uint32_t Known = R.CSM.numCSMethods();
  CSMethodId CM = R.CSM.csMethod(C, M);
  if (CM.idx() >= CSMethodNodes.size())
    CSMethodNodes.resize(R.CSM.numCSMethods());
  return {CM, CM.idx() >= Known};
}

void SolverCore::linkCall(ContextId C, const CallSiteInfo &CS,
                          CSSiteId CSSite, CSMethodId CM, bool IsNew,
                          CallerNodes &Caller) {
  auto [CalleeCtx, Callee] = R.CSM.methodOf(CM);
  if (!R.CG.addEdge(CSSite, CM, Callee))
    return; // the callee of an existing edge is reachable already
  if (IsNew)
    expandMethod(CalleeCtx, Callee);
  // Each edge fetches its destination node before its source, so node
  // ids do not depend on the order a compiler evaluates arguments in.
  const MethodInfo &CalleeInfo = P.method(Callee);
  for (size_t I = 0; I < CS.Args.size() && I < CalleeInfo.Params.size();
       ++I) {
    PtrNodeId Param = varNode(CalleeCtx, CalleeInfo.Params[I]);
    addEdge(varNode(C, CS.Args[I]), Param);
  }
  if (CS.Result.isValid()) {
    PtrNodeId Result = cachedVarNode(Caller.Result, C, CS.Result);
    addEdge(cachedVarNode(CSMethodNodes[CM.idx()].Ret, CalleeCtx,
                          CalleeInfo.Ret),
            Result);
  }
  // Exceptions escaping the callee may propagate to the caller
  // (conservatively also when caught; see MethodInfo::Exc).
  PtrNodeId CallerExc =
      cachedVarNode(Caller.Exc, C, P.method(CS.Enclosing).Exc);
  addEdge(cachedVarNode(CSMethodNodes[CM.idx()].Exc, CalleeCtx,
                        CalleeInfo.Exc),
          CallerExc);
}

void SolverCore::expandMethod(ContextId C, MethodId M) {
  R.MethodCtxs[M.idx()].push_back(C);
  R.ReachableMethod[M.idx()] = true;
  const MethodInfo &MI = P.method(M);
  for (const Stmt &S : MI.Body) {
    switch (S.Kind) {
    case StmtKind::Alloc: {
      ObjId Rep = Heap.repr(S.Obj);
      ContextId HCtx = Heap.isMerged(Rep) ? R.Ctxs.empty()
                                          : Selector.selectHeap(C, Rep);
      uint32_t Known = R.CSM.numCSObjs();
      CSObjId O = R.CSM.csObj(HCtx, Rep);
      if (O.idx() >= Known)
        Ops.addObj(O.idx()); // new: the materialized filters must see it
      PointsToSet Single;
      Single.insert(O.idx());
      seedDelta(varNode(C, S.To), std::move(Single));
      break;
    }
    case StmtKind::Copy:
      addEdge(varNode(C, S.From), varNode(C, S.To));
      break;
    case StmtKind::AssignNull: {
      PointsToSet Single;
      Single.insert(CSNullObjRaw);
      seedDelta(varNode(C, S.To), std::move(Single));
      break;
    }
    case StmtKind::StaticLoad:
      addEdge(staticNode(S.Field), varNode(C, S.To));
      break;
    case StmtKind::StaticStore:
      addEdge(varNode(C, S.From), staticNode(S.Field));
      break;
    case StmtKind::Cast: {
      const CastSiteInfo &CS = P.castSite(S.CastIdx);
      addEdge(varNode(C, CS.From), varNode(C, CS.To), CS.Target);
      break;
    }
    case StmtKind::Return:
      addEdge(varNode(C, S.From), varNode(C, MI.Ret));
      break;
    case StmtKind::Throw:
      addEdge(varNode(C, S.From), varNode(C, MI.Exc));
      break;
    case StmtKind::Catch:
      // Flow-insensitive: a catch observes every exception the method's
      // $exc slot may hold, filtered by the caught type.
      addEdge(varNode(C, MI.Exc), varNode(C, S.To), S.Type);
      break;
    case StmtKind::Invoke:
      if (P.callSite(S.Site).Kind == CallKind::Static)
        processStaticCall(C, S.Site);
      // Virtual/special calls are driven by receiver growth (onVarGrowth).
      break;
    case StmtKind::Load:
    case StmtKind::Store:
      break; // driven by base-variable growth
    }
  }
}

void SolverCore::finalizeStats() {
  R.Stats.NumContexts = R.Ctxs.size();
  R.Stats.NumCSVars = R.CSM.numCSVars();
  R.Stats.NumCSObjs = R.CSM.numCSObjs();
  R.Stats.NumCSMethods = R.CSM.numCSMethods();
  for (bool Reach : R.ReachableMethod)
    R.Stats.NumReachableMethods += Reach;
  // SetBytes counts live chunks of the flattened solution only — a pure
  // function of the computed sets, so engines that agree bit for bit
  // report the same number. The engine-owned capacity measurement (taken
  // before the wave engine flattens representatives) lives in
  // WorkingSetBytes.
  for (uint32_t I = 0; I < R.Nodes.size(); ++I) {
    R.Stats.SetBytes += R.Pts[I].liveBytes();
    if (PTAResult::kindOf(R.Nodes.get(PtrNodeId(I))) == PTAResult::KindVar)
      R.Stats.VarPtsEntries += R.Pts[I].size();
  }
}
