//===-- pta/SetRep.h - Points-to-set backend selection --------*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The enum selecting how a run numbers its cs-objects
/// (AnalysisOptions::Rep, CLI --set-rep). Both numberings share one
/// filter structure, pta::SetRepOps (pta/SetBackend.h); they differ only
/// in whether a ranked block is pre-interned. Kept dependency-free so
/// both the options struct and the CLI can name it without pulling in
/// SetRepOps.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_PTA_SETREP_H
#define MAHJONG_PTA_SETREP_H

#include <optional>
#include <string_view>

namespace mahjong::pta {

/// How cs-objects are numbered. Both compute bit-identical solutions
/// (pta::ResultDigest; raced by bench_preanalysis --set-rep-race); they
/// differ in speed.
enum class SetRep {
  Chunked,   ///< discovery-order ids; a cast filter is all bitmap
  Hierarchy, ///< ranked ids first; a cast filter is mostly rank ranges
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
