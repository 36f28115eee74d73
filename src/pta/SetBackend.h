//===-- pta/SetBackend.h - Cs-object numbering and cast filters -*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The set-representation backend behind AnalysisOptions::Rep: one
/// SetRepOps per run, shared by whichever engine solves it, owning what is
/// representation policy rather than propagation policy —
///
///  - the cs-object numbering: under SetRep::Hierarchy the constructor
///    pre-interns every allocation site's context-insensitive cs-object
///    in class-hierarchy rank order (the ranked block); under
///    SetRep::Chunked nothing is pre-interned and ids follow the engine's
///    discovery order,
///  - the cast filters: per cast target, the [lo, hi) rank ranges of the
///    passing ranked objects (none under Chunked) plus a bitmap of the
///    passing cs-objects above the ranked block, applied in one
///    PointsToSet::intersectWithRanges.
///
/// So the chunked backend is the hierarchy backend with nothing ranked.
/// A cs-object's type is read through PTAResult::typeOfCSObj; the set
/// value type stays support/PointsToSet.h for both numberings.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_PTA_SETBACKEND_H
#define MAHJONG_PTA_SETBACKEND_H

#include "pta/SetRep.h"
#include "support/Ids.h"
#include "support/PointsToSet.h"

#include <utility>
#include <vector>

namespace mahjong::pta {

class PTAResult;

/// Per-run cs-object numbering and cast filters. The analysis facade
/// (runPointerAnalysis) constructs one before the engine, which holds a
/// reference.
class SetRepOps {
public:
  using Ranges = std::vector<std::pair<uint32_t, uint32_t>>;

  /// Under SetRep::Hierarchy, pre-interns the ranked block into \p R, so
  /// it must run before any other cs-object is interned there.
  SetRepOps(SetRep Kind, PTAResult &R);

  /// Tells every materialized filter about cs-object \p CSObjRaw, which
  /// was just interned. Filters materialized later sweep it themselves.
  void addObj(uint32_t CSObjRaw);

  /// Restricts \p S to the cs-objects passing cast target \p F, building
  /// F's filter on first use.
  void filter(PointsToSet &S, TypeId F);

  /// Rank ranges of \p F, building its filter on first use — exposed for
  /// the range-mask property tests.
  const Ranges &rangesOf(TypeId F) { return materialize(F).RankRanges; }
  /// Size of the ranked block: cs-object raw id == rank below it.
  uint32_t numRanked() const { return NumRanked; }

private:
  struct Filter {
    TypeId Target;
    Ranges RankRanges; ///< sorted, disjoint, within [0, NumRanked)
    PointsToSet Above; ///< passing cs-objects with raw id >= NumRanked
  };

  const Filter &materialize(TypeId F);

  const PTAResult &R;
  uint32_t NumRanked = 0;
  std::vector<Filter> Filters;
  std::vector<uint32_t> FilterOf; ///< by TypeId: index into Filters
};

} // namespace mahjong::pta

#endif // MAHJONG_PTA_SETBACKEND_H
