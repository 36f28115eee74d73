//===-- serve/Snapshot.h - Persistent analysis snapshots ------*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The .mjsnap persistent snapshot format: everything a points-to query
/// needs from one analysis run, serialized once and served forever after
/// without re-running the solver.
///
/// A snapshot captures the *query-facing projection* of a PTAResult — the
/// interned program entities (types with their subtype closure, fields,
/// methods, variables, allocation-site objects), the context-insensitive
/// points-to set of every variable, the CI call graph, and the cast-site
/// table. Points-to sets are stored deduplicated (each distinct set once,
/// variables reference it by index) and delta-encoded (sorted object ids,
/// LEB128 gaps). Since format v2 the dedup table is additionally
/// *front-coded*: the table is kept lexicographically sorted (buildSnapshot
/// pins that order), and each set stores only the length of the prefix it
/// shares with its predecessor plus the delta-coded suffix — dedup removes
/// identical sets, front-coding the near-identical ones that remain (a
/// variable's set is typically a superset of its neighbors'). All encodings
/// compound with the MAHJONG heap: merged objects collapse many sets onto
/// few class representatives, so the dedup table stays small — the same
/// repetitive-structure observation the MDE line of work exploits
/// (PAPERS.md). v1 files (plain per-set delta lists, unsorted table) still
/// load.
///
/// File layout (all integers LEB128 unless noted):
///
///   magic   "MJSNAP" (6 bytes)
///   version u32 LE — gated on load against [MinSupported, Current]
///   checksum u64 LE — FNV-1a of the payload bytes
///   payloadSize u64 LE
///   payload: sequence of sections (u8 id, varint byteLen, bytes);
///            unknown section ids are skipped, so adding sections is a
///            forward-compatible change that needs no version bump.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_SERVE_SNAPSHOT_H
#define MAHJONG_SERVE_SNAPSHOT_H

#include "pta/PointerAnalysis.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mahjong::serve {

/// Format version written by this build (v2: front-coded dedup table).
inline constexpr uint32_t SnapshotVersion = 2;
/// Oldest version this build still loads.
inline constexpr uint32_t SnapshotMinSupported = 1;

/// The decoded in-memory model of one snapshot. Immutable after load /
/// build; the query engine reads it from many threads without locks.
struct SnapshotData {
  static constexpr uint32_t NoMethod = 0xFFFFFFFFu;

  struct Type {
    std::string Name;
    uint8_t Kind = 0; ///< ir::TypeKind as a stable byte
    /// Sorted ids of every type this one is a subtype of (including
    /// itself) — the baked subtype closure, so cast queries never need
    /// the class hierarchy at serving time.
    std::vector<uint32_t> Ancestors;
  };
  struct Field {
    std::string Name;
    uint32_t Declaring = 0;
  };
  struct Method {
    std::string Signature;
    bool Reachable = false;
  };
  struct Var {
    std::string Name;
    uint32_t Method = 0;
    uint32_t PtsSet = 0; ///< index into PtsSets
  };
  struct Obj {
    uint32_t Type = 0;
    uint32_t Method = NoMethod; ///< allocating method; NoMethod for o_null
  };
  struct Site {
    uint8_t Kind = 0; ///< ir::CallKind as a stable byte
    uint32_t Enclosing = 0;
    std::vector<uint32_t> Callees; ///< sorted method ids (CI projection)
  };
  struct Cast {
    uint32_t From = 0; ///< operand variable
    uint32_t Target = 0;
    uint32_t Enclosing = 0;
  };

  uint32_t FormatVersion = SnapshotVersion;
  std::string AnalysisName;
  std::string HeapName;

  std::vector<Type> Types;
  std::vector<Field> Fields;
  std::vector<Method> Methods;
  std::vector<Var> Vars;
  std::vector<Obj> Objs;
  std::vector<Site> Sites;
  std::vector<Cast> Casts;
  /// Deduplicated CI points-to sets as sorted object-id vectors; index 0
  /// is always the empty set. buildSnapshot orders the table
  /// lexicographically (the empty set is the lexicographic minimum, so
  /// the index-0 invariant falls out), which is what makes the v2
  /// front-coded encoding effective; decoded v1 files may carry the
  /// table in any order.
  std::vector<std::vector<uint32_t>> PtsSets;

  /// Subtype test over the baked closure.
  bool isSubtype(uint32_t Sub, uint32_t Super) const;

  /// Same rendering as Program::describeObj ("oN<Type>@Method").
  std::string describeObj(uint32_t O) const;

  /// The stable query key of a variable: "MethodSignature::name".
  std::string varKey(uint32_t V) const {
    return Methods[Vars[V].Method].Signature + "::" + Vars[V].Name;
  }

  const std::vector<uint32_t> &ptsOfVar(uint32_t V) const {
    return PtsSets[Vars[V].PtsSet];
  }
};

/// Projects \p R into the snapshot model (no I/O).
SnapshotData buildSnapshot(const pta::PTAResult &R);

/// Content digest of a decoded snapshot: FNV-1a over its canonical
/// (current-version) encoding, so two snapshots answer queries
/// identically iff their digests match regardless of which wire version
/// they were loaded from. The serving tier stamps every response with
/// this value so clients can tell which published snapshot answered.
uint64_t snapshotDigest(const SnapshotData &D);

/// Serializes \p D into current-version (SnapshotVersion) .mjsnap bytes
/// (header + checksummed payload). Older versions are read, not written.
std::string encodeSnapshot(const SnapshotData &D);

/// Decodes and validates .mjsnap bytes. \returns null with a diagnostic
/// in \p Err on bad magic, unsupported version, checksum mismatch,
/// truncation, or cross-reference violations.
std::unique_ptr<SnapshotData> decodeSnapshot(std::string_view Bytes,
                                             std::string &Err);

/// build + encode + write. \returns false with a diagnostic in \p Err.
bool saveSnapshot(const pta::PTAResult &R, const std::string &Path,
                  std::string &Err);

/// read + decode. \returns null with a diagnostic in \p Err.
std::unique_ptr<SnapshotData> loadSnapshot(const std::string &Path,
                                           std::string &Err);

} // namespace mahjong::serve

#endif // MAHJONG_SERVE_SNAPSHOT_H
