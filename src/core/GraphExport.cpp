//===-- core/GraphExport.cpp - DOT exporters ----------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/GraphExport.h"

#include <deque>
#include <set>
#include <sstream>
#include <unordered_set>

using namespace mahjong;
using namespace mahjong::core;
using namespace mahjong::ir;

/// Escapes a label for DOT (quotes and backslashes).
static std::string escape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

std::string mahjong::core::fpgToDot(const FieldPointsToGraph &G, ObjId Root,
                                    unsigned MaxNodes) {
  const Program &P = G.program();
  std::ostringstream OS;
  OS << "digraph fpg {\n  rankdir=LR;\n  node [shape=ellipse];\n";
  std::unordered_set<uint32_t> Visited{Root.idx()};
  std::deque<ObjId> Queue{Root};
  unsigned Emitted = 0;
  while (!Queue.empty() && Emitted < MaxNodes) {
    ObjId O = Queue.front();
    Queue.pop_front();
    ++Emitted;
    if (P.isNullObj(O)) {
      OS << "  o" << O.idx() << " [label=\"null\", shape=doublecircle];\n";
      continue;
    }
    OS << "  o" << O.idx() << " [label=\"o" << O.idx() << ": "
       << escape(P.type(P.obj(O).Type).Name) << "\"";
    if (O == Root)
      OS << ", style=bold";
    OS << "];\n";
    for (const auto &[F, Targets] : G.fieldsOf(O))
      for (ObjId T : Targets) {
        OS << "  o" << O.idx() << " -> o" << T.idx() << " [label=\""
           << escape(P.field(F).Name) << "\"];\n";
        if (Visited.insert(T.idx()).second)
          Queue.push_back(T);
      }
  }
  if (!Queue.empty())
    OS << "  truncated [label=\"... truncated at " << MaxNodes
       << " nodes\", shape=plaintext];\n";
  OS << "}\n";
  return OS.str();
}

std::string mahjong::core::dfaToDot(const FieldPointsToGraph &G,
                                    DFACache &Cache, ObjId Root,
                                    unsigned MaxStates) {
  const Program &P = G.program();
  std::ostringstream OS;
  OS << "digraph dfa {\n  rankdir=LR;\n  node [shape=box];\n";
  DFAStateId Start = Cache.startFor(Root);
  std::unordered_set<uint32_t> Visited{Start.idx()};
  std::deque<DFAStateId> Queue{Start};
  unsigned Emitted = 0;
  while (!Queue.empty() && Emitted < MaxStates) {
    DFAStateId S = Queue.front();
    Queue.pop_front();
    ++Emitted;
    std::string Members, Types;
    for (ObjId O : Cache.members(S)) {
      Members += (Members.empty() ? "" : ",") + ("o" + std::to_string(
                                                            O.idx()));
    }
    for (TypeId T : Cache.outputs(S))
      Types += (Types.empty() ? "" : ",") + P.type(T).Name;
    OS << "  s" << S.idx() << " [label=\"{" << escape(Members) << "}\\n-> {"
       << escape(Types) << "}\"";
    if (S == Start)
      OS << ", style=bold";
    if (Cache.outputs(S).size() > 1)
      OS << ", color=red"; // a Condition-2 violation lives here
    OS << "];\n";
    for (const auto &[F, T] : Cache.transitions(S)) {
      OS << "  s" << S.idx() << " -> s" << T.idx() << " [label=\""
         << escape(P.field(F).Name) << "\"];\n";
      if (Visited.insert(T.idx()).second)
        Queue.push_back(T);
    }
  }
  if (!Queue.empty())
    OS << "  truncated [label=\"... truncated at " << MaxStates
       << " states\", shape=plaintext];\n";
  OS << "}\n";
  return OS.str();
}

std::string mahjong::core::callGraphToDot(const pta::PTAResult &R) {
  const Program &P = R.P;
  std::ostringstream OS;
  OS << "digraph callgraph {\n  node [shape=box, fontsize=10];\n";
  std::set<uint32_t> Methods;
  std::set<std::pair<uint32_t, uint32_t>> Edges;
  for (CallSiteId Site : R.CG.callSitesWithEdges()) {
    MethodId Caller = P.callSite(Site).Enclosing;
    Methods.insert(Caller.idx());
    for (MethodId Callee : R.CG.calleesOf(Site)) {
      Methods.insert(Callee.idx());
      Edges.insert({Caller.idx(), Callee.idx()});
    }
  }
  Methods.insert(P.entryMethod().idx());
  for (uint32_t M : Methods)
    OS << "  m" << M << " [label=\""
       << escape(P.method(MethodId(M)).Signature) << "\"];\n";
  for (auto [From, To] : Edges)
    OS << "  m" << From << " -> m" << To << ";\n";
  OS << "}\n";
  return OS.str();
}
