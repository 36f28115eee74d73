//===-- clients/Clients.h - Type-dependent clients ------------*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three type-dependent clients the paper evaluates (§6):
///
///  - call graph construction — #call graph edges (CI-projected),
///  - devirtualization — #poly call sites (virtual sites that cannot be
///    disambiguated into mono-calls),
///  - may-fail casting — #casts whose operand may hold an object that is
///    not a subtype of the target type.
///
/// All three depend only on the *types* of pointed-to objects, which is
/// exactly why MAHJONG's type-consistent merging preserves their
/// precision (paper §2).
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_CLIENTS_CLIENTS_H
#define MAHJONG_CLIENTS_CLIENTS_H

#include "pta/PointerAnalysis.h"

#include <string>
#include <vector>

namespace mahjong::clients {

/// The client metrics of one analysis run (smaller is more precise,
/// except reachable methods where smaller is also more precise).
struct ClientResults {
  uint64_t CallGraphEdges = 0;   ///< distinct (site, callee) pairs
  uint64_t ReachableMethods = 0; ///< CI-reachable methods
  uint64_t PolyCallSites = 0;    ///< virtual sites with >= 2 targets
  uint64_t MonoCallSites = 0;    ///< devirtualizable virtual sites
  uint64_t MayFailCasts = 0;     ///< cast sites that may fail
  uint64_t TotalCasts = 0;       ///< cast sites in reachable code
};

/// Evaluates all three clients over \p R.
ClientResults evaluateClients(const pta::PTAResult &R);

/// True if the cast site \p CastIdx may fail under \p R: some context of
/// its method flows an object into the operand whose type is not a
/// subtype of the target (null never fails).
bool castMayFail(const pta::PTAResult &R, uint32_t CastIdx);

/// Renders the metrics as "edges=... poly=... mayfail=..." for logs.
std::string toString(const ClientResults &CR);

/// May-alias query: can \p A and \p B point to the same abstract object
/// (CI-projected, null excluded)?
///
/// Deliberately NOT a type-dependent client: the paper (§1, §2) designs
/// MAHJONG to preserve precision for type-dependent clients only, and
/// predicts that merging type-consistent objects makes more variable
/// pairs alias. Tests and the ablation bench use this to demonstrate
/// that documented trade-off.
bool mayAlias(const pta::PTAResult &R, VarId A, VarId B);

/// Number of distinct local-variable pairs of \p M that may alias — an
/// aggregate alias-precision metric (smaller is more precise).
uint64_t countAliasedLocalPairs(const pta::PTAResult &R, MethodId M);

} // namespace mahjong::clients

#endif // MAHJONG_CLIENTS_CLIENTS_H
