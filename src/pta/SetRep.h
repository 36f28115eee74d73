//===-- pta/SetRep.h - Points-to-set backend selection --------*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strategy enum selecting which set-representation backend a run
/// uses (AnalysisOptions::Rep, CLI --set-rep). Kept dependency-free so
/// both the options struct and the CLI can name backends without pulling
/// in the backend implementations (pta/SetBackend.h).
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_PTA_SETREP_H
#define MAHJONG_PTA_SETREP_H

#include <optional>
#include <string_view>

namespace mahjong::pta {

/// How cs-objects are numbered and cast filters represented. Both
/// backends compute bit-identical solutions (pta::ResultDigest; raced by
/// bench_preanalysis --set-rep-race); they differ in speed.
enum class SetRep {
  Chunked,   ///< discovery-order object ids; per-type filter bitmaps
  Hierarchy, ///< class-hierarchy-ranked object ids; range-mask filters
};

inline const char *setRepName(SetRep Rep) {
  switch (Rep) {
  case SetRep::Chunked:
    return "chunked";
  case SetRep::Hierarchy:
    return "hierarchy";
  }
  return "chunked";
}

inline std::optional<SetRep> parseSetRep(std::string_view Name) {
  if (Name == "chunked")
    return SetRep::Chunked;
  if (Name == "hierarchy")
    return SetRep::Hierarchy;
  return std::nullopt;
}

} // namespace mahjong::pta

#endif // MAHJONG_PTA_SETREP_H
