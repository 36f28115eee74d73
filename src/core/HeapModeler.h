//===-- core/HeapModeler.h - MAHJONG's heap modeler (Alg. 1) --*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heap modeler: partitions the abstract heap into type-consistency
/// equivalence classes (Definitions 2.1/2.2) and outputs the merged
/// object map (MOM) that a subsequent points-to analysis consumes.
///
/// Implementation of the paper's Algorithm 1 with the section-5
/// optimizations: the shared automata of DFACache, and per-type buckets
/// (type-consistent objects always share a type, so no two buckets can
/// ever merge the same object). The paper runs the buckets in parallel;
/// here they run in sequence, since the global behavioral partition
/// (DFAPartition) leaves them a negligible share of the merge.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_CORE_HEAPMODELER_H
#define MAHJONG_CORE_HEAPMODELER_H

#include "core/DFACache.h"
#include "core/FieldPointsToGraph.h"

#include <functional>
#include <vector>

namespace mahjong::core {

/// Which member of an equivalence class becomes the representative. The
/// paper notes (§3.6.2, Example 3.2) that this choice can matter for
/// M-ktype precision; we expose it for the ablation bench.
enum class ReprPolicy : uint8_t {
  FirstSite, ///< lowest allocation-site id (default)
  LastSite,  ///< highest allocation-site id
};

/// Configuration for the heap modeler.
struct HeapModelerOptions {
  /// Ablation switch for Condition 2 of Definition 2.1 (Example 2.4
  /// shows disabling it loses precision).
  bool EnforceCondition2 = true;
  /// Pre-group candidates by the global behavioral partition
  /// (DFAPartition) before the pairwise Hopcroft-Karp checks. Exact and
  /// much faster on heaps with many small equivalence classes; disable
  /// to run the paper's plain object-vs-representative scan.
  bool UsePartitionIndex = true;
  ReprPolicy Repr = ReprPolicy::FirstSite;
};

/// The merged object map plus statistics.
struct HeapModelerResult {
  /// Per allocation site, the representative object of its equivalence
  /// class (identity for unreachable objects and o_null).
  std::vector<ObjId> MOM;
  /// Number of equivalence classes among reachable objects — the object
  /// count of the MAHJONG abstraction (Figure 8).
  uint32_t NumClasses = 0;
  uint32_t NumReachableObjs = 0;
  uint64_t PairsTested = 0;     ///< equivalence queries issued
  uint64_t DFAStates = 0;       ///< shared DFA states materialized
  double Seconds = 0;           ///< wall-clock of the modeling phase
};

/// Runs Algorithm 1 over \p G using \p Cache for automata.
HeapModelerResult modelHeap(const FieldPointsToGraph &G, DFACache &Cache,
                            const HeapModelerOptions &Opts = {});

/// The partition-indexed grouping step of Algorithm 1, parameterized by
/// an arbitrary block oracle (normally DFAPartition::blockOf). Objects
/// whose start states share a block are candidates for the same group;
/// Hopcroft-Karp still certifies every membership, so the result is
/// correct — identical to the plain object-vs-representative scan — even
/// if the oracle over-merges blocks. Exposed so tests can drive the
/// disagreement path with a lying oracle. \p Cache must have every
/// object's start region materialized and (when \p EnforceCondition2)
/// condition-2 verdicts memoized; the function performs zero writes.
std::vector<std::vector<ObjId>>
groupByBlockOracle(const std::vector<ObjId> &Objs, const DFACache &Cache,
                   const std::function<uint32_t(DFAStateId)> &BlockOf,
                   bool EnforceCondition2, uint64_t &PairsTested);

/// Groups reachable objects by representative. Pairs (representative,
/// members) are sorted by descending class size — the layout of the
/// paper's Table 1 / Figure 9.
std::vector<std::pair<ObjId, std::vector<ObjId>>>
equivalenceClasses(const FieldPointsToGraph &G,
                   const HeapModelerResult &Result);

} // namespace mahjong::core

#endif // MAHJONG_CORE_HEAPMODELER_H
