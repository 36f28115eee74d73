//===-- tests/TestUtil.h - Shared test helpers ----------------*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the test suite: parse-or-die, a one-call analysis
/// runner, points-to lookups by name, and a builder that turns an explicit
/// (object, field, object) edge list into a Program whose field points-to
/// graph is exactly that list — the workhorse of the automata property
/// tests.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_TESTS_TESTUTIL_H
#define MAHJONG_TESTS_TESTUTIL_H

#include "core/DFACache.h"
#include "core/FieldPointsToGraph.h"
#include "ir/ClassHierarchy.h"
#include "ir/Parser.h"
#include "ir/ProgramBuilder.h"
#include "pta/PointerAnalysis.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace mahjong::test {

/// Parses .mj source, failing the test on a syntax error.
inline std::unique_ptr<ir::Program> parseOrDie(std::string_view Src) {
  std::string Err;
  auto P = ir::parseProgram(Src, Err);
  EXPECT_TRUE(P != nullptr) << "parse error: " << Err;
  if (!P)
    std::abort();
  return P;
}

/// A program together with its hierarchy and one analysis result.
struct Analyzed {
  std::unique_ptr<ir::Program> P;
  std::unique_ptr<ir::ClassHierarchy> CH;
  std::unique_ptr<pta::PTAResult> R;
};

/// Parses and analyzes in one step.
inline Analyzed analyze(std::string_view Src,
                        pta::ContextKind Kind = pta::ContextKind::Insensitive,
                        unsigned K = 0,
                        const pta::HeapAbstraction *Heap = nullptr) {
  Analyzed A;
  A.P = parseOrDie(Src);
  A.CH = std::make_unique<ir::ClassHierarchy>(*A.P);
  pta::AnalysisOptions Opts;
  Opts.Kind = Kind;
  Opts.K = K;
  Opts.Heap = Heap;
  A.R = pta::runPointerAnalysis(*A.P, *A.CH, Opts);
  return A;
}

/// Finds a variable by method signature and name; fails if absent.
inline VarId findVar(const ir::Program &P, std::string_view MethodSig,
                     std::string_view VarName) {
  MethodId M = P.methodBySignature(MethodSig);
  EXPECT_TRUE(M.isValid()) << "no method " << MethodSig;
  for (uint32_t I = 0; I < P.numVars(); ++I)
    if (P.var(VarId(I)).Method == M && P.var(VarId(I)).Name == VarName)
      return VarId(I);
  ADD_FAILURE() << "no var " << VarName << " in " << MethodSig;
  return VarId::invalid();
}

/// Names of the types a variable may point to, sorted (CI projection).
inline std::vector<std::string> pointeeTypes(const pta::PTAResult &R,
                                             std::string_view MethodSig,
                                             std::string_view VarName) {
  VarId V = findVar(R.P, MethodSig, VarName);
  std::vector<std::string> Names;
  for (uint32_t Raw : R.ciVarPts(V))
    Names.push_back(R.P.type(R.P.obj(ObjId(Raw)).Type).Name);
  std::sort(Names.begin(), Names.end());
  Names.erase(std::unique(Names.begin(), Names.end()), Names.end());
  return Names;
}

/// Labels ("oN<T>") of the objects a variable may point to, sorted.
inline std::vector<std::string> pointeeObjs(const pta::PTAResult &R,
                                            std::string_view MethodSig,
                                            std::string_view VarName) {
  VarId V = findVar(R.P, MethodSig, VarName);
  std::vector<std::string> Names;
  for (uint32_t Raw : R.ciVarPts(V)) {
    ObjId O = ObjId(Raw);
    Names.push_back("o" + std::to_string(O.idx()) + "<" +
                    R.P.type(R.P.obj(O).Type).Name + ">");
  }
  std::sort(Names.begin(), Names.end());
  return Names;
}

/// An explicit object graph: node I has type TypeOf[I] (an index into
/// synthetic classes T0..Tn) and edges (From, Field, To); Field is an
/// index into fields f0..fK declared by every class.
struct GraphSpec {
  unsigned NumTypes = 1;
  unsigned NumFields = 1;
  std::vector<unsigned> TypeOf; ///< per node
  struct Edge {
    unsigned From, Field, To;
  };
  std::vector<Edge> Edges;
  /// Per type, an optional supertype index (-1 or missing: none). A type
  /// with a supertype declares no fields of its own and inherits f0..fN,
  /// so objects of different types can have identical FPG adjacency.
  std::vector<int> SuperOf;
};

/// Materializes \p G as a Program whose pre-analysis FPG is exactly G
/// (plus the standard null completion): every node is one allocation in
/// main, every edge one direct store. The nth node is the (n+1)th
/// allocation site (site 0 is o_null), i.e. node I is ObjId(I + 1).
inline std::unique_ptr<ir::Program> buildGraphProgram(const GraphSpec &G) {
  ir::ProgramBuilder B;
  for (unsigned T = 0; T < G.NumTypes; ++T) {
    std::string Name = "T" + std::to_string(T);
    if (T < G.SuperOf.size() && G.SuperOf[T] >= 0) {
      B.declClass(Name, "T" + std::to_string(G.SuperOf[T]));
      continue;
    }
    B.declClass(Name);
    for (unsigned F = 0; F < G.NumFields; ++F)
      B.declField(Name, "f" + std::to_string(F), "Object");
  }
  B.declClass("Main");
  ir::MethodBuilder &Main = B.method("Main", "main", {}, /*IsStatic=*/true);
  for (unsigned I = 0; I < G.TypeOf.size(); ++I)
    Main.alloc("o" + std::to_string(I), "T" + std::to_string(G.TypeOf[I]));
  for (const GraphSpec::Edge &E : G.Edges)
    Main.store("o" + std::to_string(E.From),
               "T" + std::to_string(G.TypeOf[E.From]) +
                   "::f" + std::to_string(E.Field),
               "o" + std::to_string(E.To));
  std::string Err;
  auto P = B.finish(Err);
  EXPECT_TRUE(P != nullptr) << "graph program build failed: " << Err;
  if (!P)
    std::abort();
  return P;
}

/// The ObjId of graph node \p I (see buildGraphProgram).
inline ObjId graphObj(unsigned I) { return ObjId(I + 1); }

/// Reference implementation of Definition 2.1 over an FPG, checking all
/// field paths up to \p Depth by joint determinization. Exact on acyclic
/// object graphs when Depth exceeds the longest simple path (both runs
/// are absorbed into constant sinks beyond it).
bool refTypeConsistent(const core::FieldPointsToGraph &G, ObjId A, ObjId B,
                       unsigned Depth);

/// SINGLETYPE-CHECK as the paper runs it, once per root: a search from
/// \p Start along explicit transitions that fails on the first state
/// whose output is not a singleton. The reference for
/// DFAPartition::singleType; expands states in \p Cache on demand.
bool refSingleType(core::DFACache &Cache, DFAStateId Start);

/// DFAPartition::singleType of \p O's start state, read from the
/// partition of \p Cache closed over every state interned so far.
bool partitionSingleType(core::DFACache &Cache, ObjId O);

} // namespace mahjong::test

#endif // MAHJONG_TESTS_TESTUTIL_H
