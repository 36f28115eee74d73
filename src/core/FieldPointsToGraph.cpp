//===-- core/FieldPointsToGraph.cpp - The FPG (paper §2.2.1) ----------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/FieldPointsToGraph.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

using namespace mahjong;
using namespace mahjong::core;
using namespace mahjong::ir;
using namespace mahjong::pta;

FieldPointsToGraph::FieldPointsToGraph(const PTAResult &Pre) : P(Pre.P) {
  uint32_t N = P.numObjs();
  Adj.resize(N);
  Reachable.assign(N, false);
  NullSucc.push_back(Program::nullObj());
  Reachable[Program::nullObj().idx()] = true;

  // Objects allocated in reachable methods participate in the FPG.
  for (uint32_t I = 1; I < N; ++I) {
    MethodId M = P.obj(ObjId(I)).Method;
    if (M.isValid() && Pre.ReachableMethod[M.idx()]) {
      Reachable[I] = true;
      ++NumReachable;
    }
  }

  // Project the pre-analysis' object-field points-to relation onto base
  // objects. The pre-analysis is context-insensitive, so this is normally
  // a 1:1 copy; the projection keeps the builder correct for any input.
  // Rows arrive ascending by (object, field), so every list is sorted.
  std::vector<bool> FieldSeen(P.numFields(), false);
  Pre.forEachCIFieldPts(
      [&](ObjId Base, FieldId F, const PTAResult::ObjList &Objs) {
        if (!Reachable[Base.idx()])
          return;
        std::vector<ObjId> Targets;
        Targets.reserve(Objs.size());
        for (uint32_t O : Objs)
          Targets.push_back(ObjId(O));
        NumEdges += Targets.size();
        if (!FieldSeen[F.idx()]) {
          FieldSeen[F.idx()] = true;
          ++NumFieldsUsed;
        }
        Adj[Base.idx()].emplace_back(F, std::move(Targets));
      });

  // Null completion: every declared instance field with no edge points to
  // o_null (paper §4.1: "if o_i.f = null, then (o_i, f, o_null) ∈ E").
  for (uint32_t I = 1; I < N; ++I) {
    if (!Reachable[I])
      continue;
    auto &Edges = Adj[I];
    for (FieldId F : P.allInstanceFields(P.obj(ObjId(I)).Type)) {
      auto It = std::lower_bound(
          Edges.begin(), Edges.end(), F,
          [](const auto &Entry, FieldId Key) { return Entry.first < Key; });
      if (It == Edges.end() || It->first != F) {
        Edges.insert(It, {F, {Program::nullObj()}});
        ++NumEdges;
        if (!FieldSeen[F.idx()]) {
          FieldSeen[F.idx()] = true;
          ++NumFieldsUsed;
        }
      }
    }
  }
  numberAdjClasses();
}

void FieldPointsToGraph::numberAdjClasses() {
  // o_null is class 0: its empty list stands for implicit self-loops, so
  // it must never share a class with a genuinely field-less object.
  AdjClass.assign(Adj.size(), 0);
  ClassRep.push_back(Program::nullObj());
  // Classes keyed by a hash of their list; a hit is confirmed against the
  // class representative's list, so no list is ever copied.
  std::unordered_map<uint64_t, std::vector<uint32_t>> ClassesOfHash;
  for (uint32_t I = 1; I < Adj.size(); ++I) {
    const auto &Edges = Adj[I];
    uint64_t H = 1469598103934665603ull;
    auto Mix = [&H](uint64_t V) {
      H ^= V;
      H *= 1099511628211ull;
    };
    for (const auto &[F, Targets] : Edges) {
      Mix(F.idx());
      Mix(Targets.size());
      for (ObjId T : Targets)
        Mix(T.idx());
    }
    std::vector<uint32_t> &Candidates = ClassesOfHash[H];
    auto Same = std::find_if(
        Candidates.begin(), Candidates.end(),
        [&](uint32_t C) { return Adj[ClassRep[C].idx()] == Edges; });
    if (Same != Candidates.end()) {
      AdjClass[I] = *Same;
      continue;
    }
    AdjClass[I] = ClassRep.size();
    Candidates.push_back(ClassRep.size());
    ClassRep.push_back(ObjId(I));
  }
}

const std::vector<ObjId> &FieldPointsToGraph::succ(ObjId O, FieldId F) const {
  static const std::vector<ObjId> None;
  if (P.isNullObj(O))
    return NullSucc; // (o_null, f, o_null) for every f
  const auto &Edges = Adj[O.idx()];
  auto It = std::lower_bound(
      Edges.begin(), Edges.end(), F,
      [](const auto &Entry, FieldId Key) { return Entry.first < Key; });
  if (It == Edges.end() || It->first != F)
    return None;
  return It->second;
}

std::vector<ObjId> FieldPointsToGraph::reachableObjs() const {
  std::vector<ObjId> Result;
  Result.reserve(NumReachable);
  for (uint32_t I = 1; I < Reachable.size(); ++I)
    if (Reachable[I])
      Result.push_back(ObjId(I));
  return Result;
}

uint32_t FieldPointsToGraph::nfaSize(ObjId O) const {
  std::vector<bool> Visited(Adj.size(), false);
  std::deque<ObjId> Queue{O};
  Visited[O.idx()] = true;
  uint32_t Count = 0;
  while (!Queue.empty()) {
    ObjId Cur = Queue.front();
    Queue.pop_front();
    ++Count;
    if (P.isNullObj(Cur))
      continue;
    for (const auto &[F, Targets] : Adj[Cur.idx()])
      for (ObjId T : Targets)
        if (!Visited[T.idx()]) {
          Visited[T.idx()] = true;
          Queue.push_back(T);
        }
  }
  return Count;
}
