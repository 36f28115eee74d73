//===-- pta/SetBackend.h - Pluggable set-representation backends -*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strategy object behind AnalysisOptions::Rep: one SetRepOps per
/// run, shared by whichever engine solves it, owning everything that is
/// representation policy rather than propagation policy —
///
///  - the cs-object type table (every engine registers discovered
///    objects here; NaiveSolver's per-element semantic filter reads it),
///  - the cast-filter machinery (per-type bitmaps for the chunked
///    backend, [lo, hi) hierarchy range masks for the hierarchy backend),
///  - the hierarchy backend's object renumbering pre-pass (prepare()).
///
/// The set *value type* stays support/PointsToSet.h for every backend
/// (concept-checked there): backends change how ids are numbered and how
/// filters are represented — never the chunk format clients read.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_PTA_SETBACKEND_H
#define MAHJONG_PTA_SETBACKEND_H

#include "pta/SetRep.h"
#include "support/Ids.h"
#include "support/PointsToSet.h"

#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mahjong::ir {
class Program;
class ClassHierarchy;
} // namespace mahjong::ir

namespace mahjong::pta {

class PTAResult;

/// Per-run set-representation strategy. Engines hold a reference; the
/// analysis facade (runPointerAnalysis) owns the object and calls
/// prepare() before constructing an engine.
class SetRepOps {
public:
  const SetRep Kind;

  SetRepOps(SetRep Kind, const ir::Program &P, const ir::ClassHierarchy &CH)
      : Kind(Kind), P(P), CH(CH) {}
  virtual ~SetRepOps() = default;

  /// Pre-solve hook. The chunked backend keeps the engine's discovery-order
  /// cs-object numbering (the windowed union depends on its locality —
  /// see the comment in SetBackend.cpp). The hierarchy backend overrides
  /// this to pre-intern every allocation site's context-insensitive
  /// cs-object in class-hierarchy rank order, which is what makes raw
  /// set elements range-maskable; must therefore run before any other
  /// cs-object interning.
  virtual void prepare(PTAResult &R);

  /// Records a discovered cs-object and its dynamic type, keeping every
  /// already-materialized filter structure current.
  virtual void registerObj(uint32_t CSObjRaw, TypeId T);

  /// Dynamic type of a registered cs-object (invalid if unregistered).
  TypeId typeOf(uint32_t CSObjRaw) const {
    return CSObjRaw < ObjTypes.size() ? ObjTypes[CSObjRaw] : TypeId();
  }

  /// Builds (or confirms) the filter structure for cast target \p F;
  /// applyFilter for \p F is valid afterwards.
  virtual void materializeFilter(TypeId F) = 0;

  /// Restricts \p S to the cs-objects passing cast target \p F, using the
  /// structure materializeFilter built.
  virtual void applyFilter(PointsToSet &S, TypeId F) const = 0;

protected:
  const ir::Program &P;
  const ir::ClassHierarchy &CH;
  /// Type per cs-object raw id, grown by registerObj.
  std::vector<TypeId> ObjTypes;
};

/// The reference backend (SetRep::Chunked): discovery-order ids and
/// per-type filter *bitmaps* — a lazily built PointsToSet of every
/// registered cs-object whose type passes the filter.
class ChunkedOps final : public SetRepOps {
public:
  ChunkedOps(const ir::Program &P, const ir::ClassHierarchy &CH)
      : SetRepOps(SetRep::Chunked, P, CH) {}

  void registerObj(uint32_t CSObjRaw, TypeId T) override;
  void materializeFilter(TypeId F) override;
  void applyFilter(PointsToSet &S, TypeId F) const override;

private:
  std::unordered_map<uint32_t, PointsToSet> FilterObjs; ///< by TypeId raw
};

/// The hierarchy backend (SetRep::Hierarchy): prepare() renumbers the
/// context-insensitive cs-objects into class-hierarchy rank order (null
/// first, classes in DFS order — every subtree contiguous — then arrays
/// grouped by element order), so a cast filter collapses into a handful
/// of [lo, hi) rank ranges with no materialized bitmap. Context-sensitive
/// heap objects are interned after the ranked block and carried per
/// filter in a small overflow bitmap.
class HierarchyOps final : public SetRepOps {
public:
  HierarchyOps(const ir::Program &P, const ir::ClassHierarchy &CH)
      : SetRepOps(SetRep::Hierarchy, P, CH) {}

  void prepare(PTAResult &R) override;
  void registerObj(uint32_t CSObjRaw, TypeId T) override;
  void materializeFilter(TypeId F) override;
  void applyFilter(PointsToSet &S, TypeId F) const override;

  /// Rank-space ranges of \p F (must be materialized) — exposed for the
  /// range-mask property tests.
  const std::vector<std::pair<uint32_t, uint32_t>> &
  rangesOf(TypeId F) const {
    return Filters.at(F.idx()).Ranges;
  }
  uint32_t numRanked() const { return NumRanked; }
  /// The allocation site ranked at \p Rank (prepare() must have run).
  ObjId objAtRank(uint32_t Rank) const { return RankToObj[Rank]; }

private:
  struct Filter {
    std::vector<std::pair<uint32_t, uint32_t>> Ranges; ///< sorted, disjoint
    PointsToSet Overflow; ///< passing cs-objects with raw >= NumRanked
  };

  uint32_t NumRanked = 0;          ///< pre-interned rank block size
  std::vector<TypeId> TypeOfRank;  ///< dynamic type per rank
  std::vector<ObjId> RankToObj;    ///< allocation site per rank
  std::unordered_map<uint32_t, Filter> Filters; ///< by TypeId raw
};

/// Backend factory for AnalysisOptions::Rep.
std::unique_ptr<SetRepOps> makeSetRepOps(SetRep Rep, const ir::Program &P,
                                         const ir::ClassHierarchy &CH);

} // namespace mahjong::pta

#endif // MAHJONG_PTA_SETBACKEND_H
