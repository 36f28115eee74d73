//===-- core/FieldPointsToGraph.h - The FPG (paper §2.2.1) ----*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The field points-to graph (FPG): nodes are the abstract heap objects of
/// the pre-analysis, and an edge (o_i, f, o_j) says o_i.f may point to
/// o_j. Built from a (context-insensitive) PTAResult by projecting the
/// object-field points-to relation, then completing it per the paper's
/// conventions (§4.1):
///
///  - a dummy node o_null represents null;
///  - a declared field that is never written points to o_null;
///  - (o_null, f, o_null) holds for every field f (null self-loops).
///
/// Only objects allocated in pre-analysis-reachable methods participate.
///
/// Objects are also numbered by *adjacency class*: two objects share a
/// class iff their fieldsOf() lists are identical (same fields, same
/// successor lists). Members of one class contribute the same successors
/// to every DFA transition, so subset construction reads each class once
/// per state instead of once per member (DFACache::computeTransitions).
/// o_null is a class of its own.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_CORE_FIELDPOINTSTOGRAPH_H
#define MAHJONG_CORE_FIELDPOINTSTOGRAPH_H

#include "pta/PointerAnalysis.h"

#include <vector>

namespace mahjong::core {

/// The immutable FPG for one program, derived from a pre-analysis.
class FieldPointsToGraph {
public:
  /// Projects \p Pre (normally the context-insensitive Andersen
  /// pre-analysis) onto object fields and applies null completion.
  explicit FieldPointsToGraph(const pta::PTAResult &Pre);

  const ir::Program &program() const { return P; }

  /// Successors of (\p O, \p F). For o_null, every field yields {o_null}.
  /// An empty result means O has no field F.
  const std::vector<ObjId> &succ(ObjId O, FieldId F) const;

  /// All (field, successors) pairs of \p O, sorted by field id. o_null
  /// reports an empty list (its self-loops are implicit in succ()).
  const std::vector<std::pair<FieldId, std::vector<ObjId>>> &
  fieldsOf(ObjId O) const {
    return Adj[O.idx()];
  }

  /// Adjacency class of \p O; equal classes <=> equal fieldsOf() lists.
  uint32_t adjClassOf(ObjId O) const { return AdjClass[O.idx()]; }

  /// The shared fieldsOf() list of every member of class \p C.
  const std::vector<std::pair<FieldId, std::vector<ObjId>>> &
  classFields(uint32_t C) const {
    return Adj[ClassRep[C].idx()];
  }

  uint32_t numAdjClasses() const { return ClassRep.size(); }

  /// True if \p O was allocated in a reachable method (o_null included).
  bool isReachable(ObjId O) const { return Reachable[O.idx()]; }

  /// All reachable objects except o_null, ascending.
  std::vector<ObjId> reachableObjs() const;

  /// Number of reachable objects excluding o_null (the paper's Figure 8
  /// "allocation-site abstraction" object count).
  uint32_t numReachableObjs() const { return NumReachable; }

  /// Total number of FPG edges (after null completion).
  uint64_t numEdges() const { return NumEdges; }

  /// Number of distinct fields appearing on edges.
  uint32_t numFieldsUsed() const { return NumFieldsUsed; }

  /// Size of the NFA rooted at \p O: the number of FPG nodes reachable
  /// from it (paper §6.1.1 reports avg/max NFA sizes).
  uint32_t nfaSize(ObjId O) const;

private:
  void numberAdjClasses();

  const ir::Program &P;
  std::vector<std::vector<std::pair<FieldId, std::vector<ObjId>>>> Adj;
  std::vector<bool> Reachable;
  std::vector<ObjId> NullSucc; ///< {o_null}, returned for o_null queries
  std::vector<uint32_t> AdjClass; ///< per object, its adjacency class
  std::vector<ObjId> ClassRep;    ///< per class, its first object
  uint32_t NumReachable = 0;
  uint64_t NumEdges = 0;
  uint32_t NumFieldsUsed = 0;
};

} // namespace mahjong::core

#endif // MAHJONG_CORE_FIELDPOINTSTOGRAPH_H
