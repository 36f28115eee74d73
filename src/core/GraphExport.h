//===-- core/GraphExport.h - DOT exporters --------------------*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graphviz (DOT) exporters for the structures a user of the library
/// wants to look at: the field points-to graph around an object, the
/// determinized automaton of an object, and the context-insensitive call
/// graph. Used by the mahjong-cli tool and handy when debugging why two
/// objects did or did not merge.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_CORE_GRAPHEXPORT_H
#define MAHJONG_CORE_GRAPHEXPORT_H

#include "core/DFACache.h"
#include "core/FieldPointsToGraph.h"
#include "pta/PointerAnalysis.h"

#include <string>

namespace mahjong::core {

/// The FPG subgraph reachable from \p Root (the object's NFA, Figure 4),
/// capped at \p MaxNodes nodes, as a DOT digraph. Nodes are labeled
/// "oN: Type"; the dummy o_null is a doubled circle.
std::string fpgToDot(const FieldPointsToGraph &G, ObjId Root,
                     unsigned MaxNodes = 64);

/// The determinized automaton rooted at \p Root as a DOT digraph: nodes
/// are DFA states labeled with their member objects and output types.
/// Expands the emitted states in \p Cache.
std::string dfaToDot(const FieldPointsToGraph &G, DFACache &Cache,
                     ObjId Root, unsigned MaxStates = 64);

/// The context-insensitive call graph of \p R (methods as nodes, one
/// edge per (site, callee) pair) as a DOT digraph.
std::string callGraphToDot(const pta::PTAResult &R);

} // namespace mahjong::core

#endif // MAHJONG_CORE_GRAPHEXPORT_H
