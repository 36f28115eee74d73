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
/// Implementation of the paper's Algorithm 1 over the shared automata of
/// DFACache (§5). Instead of comparing each object with each class
/// representative (Algorithm 4, once per pair), the global behavioral
/// partition (DFAPartition) decides condition 1 for every state at once
/// and a backward pass decides condition 2; objects are then grouped by
/// the block of their start states in one linear pass. Because a block
/// never mixes types, the paper's per-type buckets are not needed.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_CORE_HEAPMODELER_H
#define MAHJONG_CORE_HEAPMODELER_H

#include "core/DFACache.h"
#include "core/FieldPointsToGraph.h"

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
  /// Pairwise equivalence queries made: always 0, since the partition
  /// replaced them (bench/e2e still reports it as core.pairs_tested).
  uint64_t PairsTested = 0;
  uint64_t DFAStates = 0; ///< shared DFA states expanded
  double Seconds = 0;     ///< wall-clock of the modeling phase
};

/// Runs Algorithm 1 over \p G using \p Cache for automata.
HeapModelerResult modelHeap(const FieldPointsToGraph &G, DFACache &Cache,
                            const HeapModelerOptions &Opts = {});

/// Groups reachable objects by representative. Pairs (representative,
/// members) are sorted by descending class size — the layout of the
/// paper's Table 1 / Figure 9.
std::vector<std::pair<ObjId, std::vector<ObjId>>>
equivalenceClasses(const FieldPointsToGraph &G,
                   const HeapModelerResult &Result);

} // namespace mahjong::core

#endif // MAHJONG_CORE_HEAPMODELER_H
