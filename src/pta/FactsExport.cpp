//===-- pta/FactsExport.cpp - Doop-style fact dumps ---------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pta/FactsExport.h"

#include <fstream>
#include <set>

using namespace mahjong;
using namespace mahjong::ir;
using namespace mahjong::pta;

void mahjong::pta::writeVarPointsTo(const PTAResult &R, std::ostream &OS) {
  const Program &P = R.P;
  // Deterministic: variables densely, each projected over its contexts.
  R.forEachCIVarPts([&](VarId V, const PTAResult::ObjList &Objs) {
    for (uint32_t O : Objs)
      OS << P.method(P.var(V).Method).Signature << '\t' << P.var(V).Name
         << '\t' << P.describeObj(ObjId(O)) << '\n';
  });
}

void mahjong::pta::writeInstanceFieldPointsTo(const PTAResult &R,
                                              std::ostream &OS) {
  const Program &P = R.P;
  // Rows come ascending by (base object, field), never in node order.
  R.forEachCIFieldPts(
      [&](ObjId Base, FieldId F, const PTAResult::ObjList &Objs) {
        for (uint32_t O : Objs)
          OS << P.describeObj(Base) << '\t' << P.field(F).Name << '\t'
             << P.describeObj(ObjId(O)) << '\n';
      });
}

void mahjong::pta::writeStaticFieldPointsTo(const PTAResult &R,
                                            std::ostream &OS) {
  const Program &P = R.P;
  // Node ids reflect solver discovery order, which varies with worklist
  // scheduling; rows come ascending by field so the dump is byte-stable.
  R.forEachCIStaticPts([&](FieldId F, const PTAResult::ObjList &Objs) {
    for (uint32_t O : Objs)
      OS << P.type(P.field(F).Declaring).Name << '\t' << P.field(F).Name
         << '\t' << P.describeObj(ObjId(O)) << '\n';
  });
}

void mahjong::pta::writeCallGraphEdge(const PTAResult &R,
                                      std::ostream &OS) {
  const Program &P = R.P;
  for (CallSiteId Site : R.CG.callSitesWithEdges()) {
    std::set<std::string> Callees;
    for (MethodId Callee : R.CG.calleesOf(Site))
      Callees.insert(P.method(Callee).Signature);
    for (const std::string &Callee : Callees)
      OS << P.method(P.callSite(Site).Enclosing).Signature << '\t'
         << Site.idx() << '\t' << Callee << '\n';
  }
}

void mahjong::pta::writeReachable(const PTAResult &R, std::ostream &OS) {
  for (uint32_t I = 0; I < R.P.numMethods(); ++I)
    if (R.ReachableMethod[I])
      OS << R.P.method(MethodId(I)).Signature << '\n';
}

bool mahjong::pta::writeAllFacts(const PTAResult &R,
                                 const std::string &Dir) {
  struct Relation {
    const char *Name;
    void (*Write)(const PTAResult &, std::ostream &);
  } Relations[] = {
      {"VarPointsTo", writeVarPointsTo},
      {"InstanceFieldPointsTo", writeInstanceFieldPointsTo},
      {"StaticFieldPointsTo", writeStaticFieldPointsTo},
      {"CallGraphEdge", writeCallGraphEdge},
      {"Reachable", writeReachable},
  };
  for (const Relation &Rel : Relations) {
    std::ofstream Out(Dir + "/" + Rel.Name + ".facts");
    if (!Out)
      return false;
    Rel.Write(R, Out);
  }
  return true;
}
