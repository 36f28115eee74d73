//===-- core/HeapModeler.cpp - MAHJONG's heap modeler (Alg. 1) --------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/HeapModeler.h"

#include "core/DFAPartition.h"
#include "core/EquivChecker.h"
#include "obs/Trace.h"
#include "support/Timer.h"

#include <algorithm>
#include <map>

using namespace mahjong;
using namespace mahjong::core;
using namespace mahjong::ir;

namespace {

/// One per-type work unit: the objects of a single class type, in
/// allocation-site order. Buckets are independent by construction
/// (type-consistent objects always share a type).
struct TypeBucket {
  std::vector<ObjId> Objs;
  /// Output: equivalence groups found within this bucket.
  std::vector<std::vector<ObjId>> Groups;
  uint64_t PairsTested = 0;
};

/// Partitions the bucket into type-consistency classes with the paper's
/// plain scan: each object is compared against the representative of
/// every existing class (one Hopcroft-Karp query each) and joins the
/// first match. Performs zero writes to the cache — every start state
/// and condition-2 verdict was precomputed by modelHeap's build phase.
void processBucketByScan(TypeBucket &Bucket, const DFACache &Cache,
                         bool EnforceCondition2) {
  EquivChecker Checker(Cache);
  std::vector<DFAStateId> GroupStart; // start state per group
  for (ObjId O : Bucket.Objs) {
    DFAStateId Start = Cache.startFor(O);
    // Condition 2 (SINGLETYPE-CHECK): objects whose automata can reach a
    // mixed-type state stay unmerged (lines 6-7 of Algorithm 1).
    if (EnforceCondition2 && !Cache.allSingletonOutputs(Start)) {
      Bucket.Groups.push_back({O});
      GroupStart.push_back(DFAStateId::invalid());
      continue;
    }
    bool Joined = false;
    for (size_t GIdx = 0; GIdx < Bucket.Groups.size(); ++GIdx) {
      if (!GroupStart[GIdx].isValid())
        continue; // a condition-2 violator never accepts members
      ++Bucket.PairsTested;
      if (Checker.equivalent(GroupStart[GIdx], Start)) {
        Bucket.Groups[GIdx].push_back(O);
        Joined = true;
        break;
      }
    }
    if (!Joined) {
      Bucket.Groups.push_back({O});
      GroupStart.push_back(Start);
    }
  }
}

} // namespace

std::vector<std::vector<ObjId>> mahjong::core::groupByBlockOracle(
    const std::vector<ObjId> &Objs, const DFACache &Cache,
    const std::function<uint32_t(DFAStateId)> &BlockOf,
    bool EnforceCondition2, uint64_t &PairsTested) {
  EquivChecker Checker(Cache);
  std::vector<std::vector<ObjId>> Groups;
  std::vector<DFAStateId> GroupStart;
  // Candidate groups per oracle block. With an exact oracle
  // (DFAPartition) each block holds exactly one group and every
  // certification succeeds on the first try; an over-merging oracle
  // merely makes the list grow, never the result change.
  std::map<uint32_t, std::vector<size_t>> GroupsOfBlock;
  for (ObjId O : Objs) {
    DFAStateId Start = Cache.startFor(O);
    if (EnforceCondition2 && !Cache.allSingletonOutputs(Start)) {
      Groups.push_back({O});
      GroupStart.push_back(DFAStateId::invalid());
      continue;
    }
    std::vector<size_t> &Candidates = GroupsOfBlock[BlockOf(Start)];
    bool Joined = false;
    for (size_t GIdx : Candidates) {
      ++PairsTested;
      if (Checker.equivalent(GroupStart[GIdx], Start)) {
        Groups[GIdx].push_back(O);
        Joined = true;
        break;
      }
    }
    if (!Joined) {
      // Either a fresh block or the oracle disagreed with Hopcroft-Karp;
      // in both cases the new group must be registered as a candidate so
      // later members of this block are tested against it.
      Candidates.push_back(Groups.size());
      Groups.push_back({O});
      GroupStart.push_back(Start);
    }
  }
  return Groups;
}

HeapModelerResult mahjong::core::modelHeap(const FieldPointsToGraph &G,
                                           DFACache &Cache,
                                           const HeapModelerOptions &Opts) {
  Timer Clock;
  const Program &P = G.program();
  HeapModelerResult Result;
  Result.MOM.resize(P.numObjs());
  for (uint32_t I = 0; I < P.numObjs(); ++I)
    Result.MOM[I] = ObjId(I);

  // Bucket reachable objects by type (std::map keeps the processing order
  // deterministic).
  std::map<uint32_t, TypeBucket> Buckets;
  for (ObjId O : G.reachableObjs())
    Buckets[P.obj(O).Type.idx()].Objs.push_back(O);
  Result.NumReachableObjs = G.numReachableObjs();

  // Build all shared automata up front: the behavioral partition needs
  // the complete state space, and the bucket phase only ever reads the
  // cache. Condition-2 verdicts — positive and negative — are memoized
  // here too, so the per-bucket checks below are pure lookups.
  {
    obs::ScopedSpan Span("dfa-materialize");
    for (auto &[TypeIdx, Bucket] : Buckets)
      for (ObjId O : Bucket.Objs)
        Cache.materialize(Cache.startFor(O));
    if (Opts.EnforceCondition2)
      for (auto &[TypeIdx, Bucket] : Buckets)
        for (ObjId O : Bucket.Objs)
          Cache.allSingletonOutputs(Cache.startFor(O));
  }

  std::unique_ptr<DFAPartition> Partition;
  if (Opts.UsePartitionIndex) {
    obs::ScopedSpan Span("dfa-minimize");
    Partition = std::make_unique<DFAPartition>(Cache);
  }

  // The bucket phase sees the cache as const: it only reads what the
  // build phase above computed.
  const DFACache &SharedCache = Cache;
  for (auto &[TypeIdx, Bucket] : Buckets) {
    obs::ScopedSpan Span("merge-bucket");
    Span.arg("objs", Bucket.Objs.size());
    if (Partition)
      Bucket.Groups = groupByBlockOracle(
          Bucket.Objs, SharedCache,
          [&Partition](DFAStateId S) { return Partition->blockOf(S); },
          Opts.EnforceCondition2, Bucket.PairsTested);
    else
      processBucketByScan(Bucket, SharedCache, Opts.EnforceCondition2);
  }

  // Apply the groups: pick each class's representative per policy.
  for (auto &[TypeIdx, Bucket] : Buckets) {
    Result.PairsTested += Bucket.PairsTested;
    for (const std::vector<ObjId> &Group : Bucket.Groups) {
      ObjId Repr = Opts.Repr == ReprPolicy::FirstSite
                       ? *std::min_element(Group.begin(), Group.end())
                       : *std::max_element(Group.begin(), Group.end());
      for (ObjId Member : Group)
        Result.MOM[Member.idx()] = Repr;
      ++Result.NumClasses;
    }
  }
  Result.DFAStates = Cache.numStates();
  Result.Seconds = Clock.seconds();
  return Result;
}

std::vector<std::pair<ObjId, std::vector<ObjId>>>
mahjong::core::equivalenceClasses(const FieldPointsToGraph &G,
                                  const HeapModelerResult &Result) {
  std::map<uint32_t, std::vector<ObjId>> ByRepr;
  for (ObjId O : G.reachableObjs())
    ByRepr[Result.MOM[O.idx()].idx()].push_back(O);
  std::vector<std::pair<ObjId, std::vector<ObjId>>> Classes;
  Classes.reserve(ByRepr.size());
  for (auto &[Repr, Members] : ByRepr)
    Classes.emplace_back(ObjId(Repr), std::move(Members));
  std::stable_sort(Classes.begin(), Classes.end(),
                   [](const auto &A, const auto &B) {
                     return A.second.size() > B.second.size();
                   });
  return Classes;
}
