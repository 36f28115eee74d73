//===-- pta/PointerAnalysis.h - Analysis facade and results ---*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point for running a points-to analysis: pick a context
/// flavour (ci/k-cs/k-obj/k-type), a context depth and a heap abstraction,
/// and receive a PTAResult holding the full solution — points-to sets of
/// every context-sensitive variable and object field, the on-the-fly call
/// graph, reachability, and run statistics. The type-dependent clients
/// (src/clients) and the MAHJONG pre-analysis consumer (src/core) are both
/// built on PTAResult.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_PTA_POINTERANALYSIS_H
#define MAHJONG_PTA_POINTERANALYSIS_H

#include "ir/ClassHierarchy.h"
#include "ir/Program.h"
#include "pta/CSManager.h"
#include "pta/CallGraph.h"
#include "pta/Context.h"
#include "pta/ContextSelector.h"
#include "pta/HeapAbstraction.h"
#include "support/Histogram.h"
#include "support/PointsToSet.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace mahjong::pta {

struct PtrNodeTag;
/// Dense id of a pointer node (cs-variable, cs-object field, or static
/// field) in the solver's pointer-flow graph.
using PtrNodeId = Id<PtrNodeTag>;

/// Counters describing one analysis run.
struct PTAStats {
  double Seconds = 0;
  bool TimedOut = false;
  uint64_t NumContexts = 0;
  uint64_t NumCSVars = 0;
  uint64_t NumCSObjs = 0;
  uint64_t NumCSMethods = 0;
  uint64_t NumReachableMethods = 0;
  uint64_t VarPtsEntries = 0; ///< total size of all cs-variable points-to sets
  uint64_t WorklistPops = 0;
  // Wave-propagation engine counters (zero under the naive engine).
  uint64_t SCCsCollapsed = 0;  ///< copy-edge SCCs merged online
  uint64_t NodesCollapsed = 0; ///< nodes absorbed into a representative
  /// Cast-edge firings filtered through SetRepOps::filter (rank ranges
  /// plus one bitmap); the naive engine filters per element instead.
  uint64_t FilterBitmapHits = 0;
  /// Live chunk bytes of the final flattened solution (the sum of
  /// PointsToSet::liveBytes). A pure function of the computed sets, so it
  /// is identical across engines that agree bit for bit (see
  /// tests/pta/StatsConservationTest.cpp).
  uint64_t SetBytes = 0;
  /// Engine-owned working set at the end of the run: capacity bytes of
  /// every solution + pending set, measured before the wave engine
  /// flattens representatives back onto their classes. Not comparable
  /// across engines.
  uint64_t WorkingSetBytes = 0;
};

/// The complete solution of one points-to analysis run.
///
/// Pointer nodes are interned 64-bit keys: the top two bits select the
/// node kind, the payload identifies the entity (see the static key
/// helpers). Points-to sets contain raw CSObjId values; use CSM to decode
/// them to (heap context, object).
class PTAResult {
public:
  PTAResult(const ir::Program &P, const ir::ClassHierarchy &CH)
      : P(P), CH(CH), MethodCtxs(P.numMethods()),
        ReachableMethod(P.numMethods(), false) {}

  const ir::Program &P;
  const ir::ClassHierarchy &CH;
  ContextTable Ctxs;
  CSManager CSM;
  CallGraph CG;
  Interner<PtrNodeId, uint64_t> Nodes;
  std::vector<PointsToSet> Pts; ///< indexed by PtrNodeId
  std::vector<std::vector<ContextId>> MethodCtxs; ///< per MethodId
  std::vector<bool> ReachableMethod;              ///< CI reachability
  PTAStats Stats;
  /// Wall-time of each propagation wave in microseconds (empty under the
  /// naive engine, which has no wave structure). Surfaced as the
  /// "pta.wave_us" latency histogram in the CLI metrics export.
  LogHistogram WaveMicros;
  std::string AnalysisName;
  std::string HeapName;
  /// The concrete engine that produced this result ("wave" or "naive")
  /// — under SolverEngine::Auto, the one the heuristic chose.
  std::string EngineName;

  // --- Pointer-node key encoding ---
  static constexpr uint64_t KindVar = 0;
  static constexpr uint64_t KindField = 1ull << 62;
  static constexpr uint64_t KindStatic = 2ull << 62;
  static constexpr unsigned FieldBits = 20;

  static uint64_t varKey(CSVarId V) { return KindVar | V.idx(); }
  static uint64_t fieldKey(CSObjId O, FieldId F) {
    assert(F.idx() < (1u << FieldBits) && "field id overflows node key");
    return KindField | (static_cast<uint64_t>(O.idx()) << FieldBits) |
           F.idx();
  }
  static uint64_t staticKey(FieldId F) { return KindStatic | F.idx(); }
  static uint64_t kindOf(uint64_t Key) { return Key & (3ull << 62); }
  static CSVarId csVarOf(uint64_t Key) {
    return CSVarId(static_cast<uint32_t>(Key));
  }
  static std::pair<CSObjId, FieldId> csObjFieldOf(uint64_t Key) {
    uint64_t Payload = Key & ~(3ull << 62);
    return {CSObjId(static_cast<uint32_t>(Payload >> FieldBits)),
            FieldId(static_cast<uint32_t>(Payload & ((1u << FieldBits) - 1)))};
  }
  static FieldId staticFieldOf(uint64_t Key) {
    return FieldId(static_cast<uint32_t>(Key));
  }

  // --- Solution queries ---

  /// Points-to set of variable \p V under context \p C, or null if the
  /// solver never created that pointer.
  const PointsToSet *varPts(ContextId C, VarId V) const;

  /// Context-insensitive projection of \p V's points-to set: the set of
  /// base ObjId values over all contexts of its method. For one variable;
  /// to project many, use forEachCIVarPts, which shares one scratch and
  /// one grouping pass between them.
  PointsToSet ciVarPts(VarId V) const;

  /// A projected set handed to the forEachCI* callbacks: ObjId values,
  /// ascending and duplicate-free. It is scratch that the next group
  /// overwrites; copy what must outlive the callback.
  using ObjList = std::vector<uint32_t>;

  /// Context-insensitive projection of every variable in one batched
  /// pass: calls \p Fn(V, Objs) for every VarId in ascending order, Objs
  /// equal to ciVarPts(V) (empty if V points to nothing). Var nodes are
  /// grouped by base variable with one counting sort over Nodes; each
  /// group's context sets are OR'ed word by word into a dense cs-object
  /// bitmap, which is then mapped onto base objects once. The scratch,
  /// bitmaps of numCSObjs/64 and numObjs/64 words plus one bucket array
  /// of node ids, is reused across variables and freed on return.
  void forEachCIVarPts(
      const std::function<void(VarId, const ObjList &)> &Fn) const;

  /// The same projection for instance fields: calls \p Fn(O, F, Objs)
  /// for every (base object, field) whose union over all cs-objects of O
  /// is nonempty, ascending by (O, F).
  void forEachCIFieldPts(
      const std::function<void(ObjId, FieldId, const ObjList &)> &Fn) const;

  /// The same projection for static fields: calls \p Fn(F, Objs) for
  /// every static field with a nonempty set, ascending by F.
  void forEachCIStaticPts(
      const std::function<void(FieldId, const ObjList &)> &Fn) const;

  /// Points-to set of \p O.\p F, or null.
  const PointsToSet *fieldPts(CSObjId O, FieldId F) const;

  /// Invokes \p Fn for every instance-field pointer with a nonempty set.
  void forEachFieldPts(
      const std::function<void(CSObjId, FieldId, const PointsToSet &)> &Fn)
      const;

  /// Decodes a raw points-to element to its allocation-site object.
  ObjId baseObjOf(uint32_t CSObjRaw) const {
    return CSM.objOf(CSObjId(CSObjRaw)).second;
  }

  /// Dynamic type of a raw points-to element.
  TypeId typeOfCSObj(uint32_t CSObjRaw) const {
    return P.obj(baseObjOf(CSObjRaw)).Type;
  }
};

/// Which propagation core solves the constraint system. Both engines
/// compute the same fixpoint (see tests/pta/SolverEquivalenceTest.cpp);
/// Naive is retained as the differential reference and perf baseline.
enum class SolverEngine {
  Wave,  ///< cycle-collapsing, topologically ordered wave propagation
  Naive, ///< textbook FIFO worklist
  Auto,  ///< pick one of the above from a cheap pre-solve size proxy
};

/// The CLI-facing name of a *concrete* engine ("wave", "naive"); Auto
/// resolves before naming.
const char *solverEngineName(SolverEngine Engine);

/// Resolves SolverEngine::Auto to a concrete engine from cheap pre-solve
/// size proxies. The heuristic, calibrated against BENCH_solver.json and
/// BENCH_auto_solver.json at full scale:
///
///  - Small constraint systems fit in cache and converge in a handful of
///    waves; the naive FIFO worklist wins there because conditioning
///    passes and wave sorting cost more than they save.
///  - Large systems are dominated by redundant propagation around copy
///    cycles; the wave engine's collapsing pays for itself (eclipse runs
///    1.3-1.6x faster than naive).
///
/// A pure function of its arguments: same program => same engine.
SolverEngine chooseSolverEngine(uint64_t NumVars, uint64_t NumObjs);

/// Convenience overload: size proxies from \p P.
SolverEngine chooseSolverEngine(const ir::Program &P);

/// Names of the cs-object numberings that used to be selectable; only
/// AnalysisOptions::Rep still mentions them, and it is ignored.
enum class SetRep { Chunked, Hierarchy };

/// Options selecting the analysis variant.
struct AnalysisOptions {
  ContextKind Kind = ContextKind::Insensitive;
  unsigned K = 0;
  /// The propagation engine; Auto resolves via chooseSolverEngine at run
  /// start (the CLI default). The library default stays Wave so embedders
  /// get the deterministic single-engine behavior they always had.
  SolverEngine Engine = SolverEngine::Wave;
  /// Heap abstraction; null means the allocation-site abstraction.
  const HeapAbstraction *Heap = nullptr;
  /// Wall-clock budget in seconds; 0 means unlimited. A run that exceeds
  /// the budget stops early with Stats.TimedOut set (the paper's
  /// "unscalable within 5 hours" rows).
  double TimeBudgetSeconds = 0;
  /// Ignored: both engines are single-threaded. Kept only because
  /// bench/e2e/src/Pipeline.cpp assigns it.
  unsigned SolverThreads = 0;
  /// Ignored: every run numbers cs-objects in class-hierarchy rank order
  /// (pta/SetBackend.h). Kept only because bench/e2e/src/Pipeline.cpp
  /// assigns it.
  SetRep Rep = SetRep::Hierarchy;
};

/// Runs the points-to analysis described by \p Opts on \p P.
std::unique_ptr<PTAResult> runPointerAnalysis(const ir::Program &P,
                                              const ir::ClassHierarchy &CH,
                                              const AnalysisOptions &Opts);

} // namespace mahjong::pta

namespace mahjong::obs {
class MetricsRegistry;
} // namespace mahjong::obs

namespace mahjong::pta {

/// Publishes every PTAStats field into \p Reg under
/// "<Prefix><snake_case_field>" — integral fields as counters, Seconds
/// as a gauge. The registry is the machine-
/// readable face of the hand-printed CLI stats block; keep the two in
/// sync.
void exportStats(const PTAStats &S, obs::MetricsRegistry &Reg,
                 const std::string &Prefix = "pta.");

} // namespace mahjong::pta

#endif // MAHJONG_PTA_POINTERANALYSIS_H
