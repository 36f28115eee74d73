//===-- bench/bench_automata_micro.cpp - Micro-benchmarks ---------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark micro-benchmarks for the data structures and automata
// kernels: disjoint sets, points-to set unions, NFA discovery, subset
// construction, Hopcroft-Karp equivalence, behavioral partitioning, and
// the end-to-end heap modeler on a mid-size workload.
//
//===----------------------------------------------------------------------===//

#include "core/DFAPartition.h"
#include "core/EquivChecker.h"
#include "core/HeapModeler.h"
#include "core/NFA.h"
#include "pta/PointerAnalysis.h"
#include "support/DisjointSets.h"
#include "support/PointsToSet.h"
#include "workload/BenchmarkPrograms.h"

#include <benchmark/benchmark.h>

#include <random>

using namespace mahjong;
using namespace mahjong::core;

static void BM_DisjointSetsUniteFind(benchmark::State &State) {
  const uint32_t N = static_cast<uint32_t>(State.range(0));
  std::mt19937 Rng(7);
  std::vector<std::pair<uint32_t, uint32_t>> Ops(N);
  for (auto &[A, B] : Ops) {
    A = Rng() % N;
    B = Rng() % N;
  }
  for (auto _ : State) {
    DisjointSets DS(N);
    for (auto [A, B] : Ops)
      DS.unite(A, B);
    uint32_t Sink = 0;
    for (uint32_t I = 0; I < N; ++I)
      Sink ^= DS.find(I);
    benchmark::DoNotOptimize(Sink);
  }
  State.SetItemsProcessed(State.iterations() * N * 2);
}
BENCHMARK(BM_DisjointSetsUniteFind)->Arg(1 << 12)->Arg(1 << 16);

static void BM_PointsToSetUnion(benchmark::State &State) {
  const uint32_t N = static_cast<uint32_t>(State.range(0));
  std::mt19937 Rng(11);
  PointsToSet Big;
  for (uint32_t I = 0; I < N; ++I)
    Big.insert(Rng() % (N * 4));
  std::vector<PointsToSet> Deltas(64);
  for (PointsToSet &D : Deltas)
    for (int I = 0; I < 8; ++I)
      D.insert(Rng() % (N * 4));
  for (auto _ : State) {
    PointsToSet S = Big;
    for (const PointsToSet &D : Deltas)
      benchmark::DoNotOptimize(S.unionWith(D));
  }
  State.SetItemsProcessed(State.iterations() * Deltas.size());
}
BENCHMARK(BM_PointsToSetUnion)->Arg(1 << 10)->Arg(1 << 14);

namespace {

/// Two sets with skewed sizes: |A| = N, |B| = N / Skew, drawn from the
/// same universe so overlap is realistic (the solver's common case is a
/// large accumulated set meeting a small delta or filter bitmap).
std::pair<PointsToSet, PointsToSet> skewedSets(uint32_t N, uint32_t Skew) {
  std::mt19937 Rng(23);
  PointsToSet A, B;
  for (uint32_t I = 0; I < N; ++I)
    A.insert(Rng() % (N * 4));
  for (uint32_t I = 0; I < std::max(1u, N / Skew); ++I)
    B.insert(Rng() % (N * 4));
  return {std::move(A), std::move(B)};
}

} // namespace

static void BM_PointsToSetUnionSkewed(benchmark::State &State) {
  auto [A, B] = skewedSets(static_cast<uint32_t>(State.range(0)),
                           static_cast<uint32_t>(State.range(1)));
  for (auto _ : State) {
    PointsToSet S = A;
    benchmark::DoNotOptimize(S.unionWith(B));
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_PointsToSetUnionSkewed)
    ->Args({1 << 14, 1})
    ->Args({1 << 14, 16})
    ->Args({1 << 14, 256});

static void BM_PointsToSetDifferenceSkewed(benchmark::State &State) {
  auto [A, B] = skewedSets(static_cast<uint32_t>(State.range(0)),
                           static_cast<uint32_t>(State.range(1)));
  for (auto _ : State) {
    // The solver's delta pattern: which of the small set's elements are
    // new w.r.t. the big accumulated set.
    PointsToSet D = A.differenceFrom(B);
    benchmark::DoNotOptimize(D.size());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_PointsToSetDifferenceSkewed)
    ->Args({1 << 14, 1})
    ->Args({1 << 14, 16})
    ->Args({1 << 14, 256});

// Backend axis: 0 = bitmap filter (chunked: intersectWith a full
// per-type bitmap), 1 = range filter (hierarchy: intersectWithRanges
// against the RLE encoding of the same pass set). The range list here is
// the bitmap's own run-length encoding, so both modes compute the exact
// same result; real hierarchy filters are far more compact (a few runs),
// making this the range path's worst case.
static void BM_PointsToSetIntersectSkewed(benchmark::State &State) {
  auto [A, B] = skewedSets(static_cast<uint32_t>(State.range(0)),
                           static_cast<uint32_t>(State.range(1)));
  const bool UseRanges = State.range(2) == 1;
  std::vector<std::pair<uint32_t, uint32_t>> Ranges;
  if (UseRanges) {
    uint32_t Start = 0, Prev = 0;
    bool In = false;
    for (uint32_t E : A) {
      if (!In) {
        Start = E;
        In = true;
      } else if (E != Prev + 1) {
        Ranges.emplace_back(Start, Prev + 1);
        Start = E;
      }
      Prev = E;
    }
    if (In)
      Ranges.emplace_back(Start, Prev + 1);
  }
  for (auto _ : State) {
    PointsToSet S = B; // the type-filter pattern: copy delta, intersect
    if (UseRanges)
      S.intersectWithRanges(Ranges);
    else
      S.intersectWith(A);
    benchmark::DoNotOptimize(S.size());
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_PointsToSetIntersectSkewed)
    ->Args({1 << 14, 1, 0})
    ->Args({1 << 14, 16, 0})
    ->Args({1 << 14, 256, 0})
    ->Args({1 << 14, 1, 1})
    ->Args({1 << 14, 16, 1})
    ->Args({1 << 14, 256, 1});

namespace {

/// Shared fixture: a mid-size workload pre-analyzed once.
struct Fixture {
  std::unique_ptr<ir::Program> P;
  std::unique_ptr<ir::ClassHierarchy> CH;
  std::unique_ptr<pta::PTAResult> Pre;
  std::unique_ptr<FieldPointsToGraph> G;

  static const Fixture &get() {
    static Fixture F = [] {
      Fixture F;
      F.P = workload::buildBenchmarkProgram("checkstyle", 0.15);
      F.CH = std::make_unique<ir::ClassHierarchy>(*F.P);
      pta::AnalysisOptions Opts;
      F.Pre = pta::runPointerAnalysis(*F.P, *F.CH, Opts);
      F.G = std::make_unique<FieldPointsToGraph>(*F.Pre);
      return F;
    }();
    return F;
  }
};

} // namespace

static void BM_AndersenPreAnalysis(benchmark::State &State) {
  const Fixture &F = Fixture::get();
  for (auto _ : State) {
    pta::AnalysisOptions Opts;
    auto R = pta::runPointerAnalysis(*F.P, *F.CH, Opts);
    benchmark::DoNotOptimize(R->Stats.VarPtsEntries);
  }
}
BENCHMARK(BM_AndersenPreAnalysis);

static void BM_NFADiscovery(benchmark::State &State) {
  const Fixture &F = Fixture::get();
  std::vector<ObjId> Objs = F.G->reachableObjs();
  for (auto _ : State) {
    size_t Sum = 0;
    for (size_t I = 0; I < Objs.size(); I += 37) {
      NFA A(*F.G, Objs[I]);
      Sum += A.numStates();
    }
    benchmark::DoNotOptimize(Sum);
  }
}
BENCHMARK(BM_NFADiscovery);

static void BM_SubsetConstruction(benchmark::State &State) {
  const Fixture &F = Fixture::get();
  std::vector<ObjId> Objs = F.G->reachableObjs();
  for (auto _ : State) {
    DFACache Cache(*F.G);
    for (ObjId O : Objs)
      Cache.startFor(O);
    Cache.expandAll();
    benchmark::DoNotOptimize(Cache.numStates());
  }
}
BENCHMARK(BM_SubsetConstruction);

static void BM_HopcroftKarpEquivalence(benchmark::State &State) {
  const Fixture &F = Fixture::get();
  std::vector<ObjId> Objs = F.G->reachableObjs();
  DFACache Cache(*F.G);
  for (ObjId O : Objs)
    Cache.startFor(O);
  Cache.expandAll();
  for (auto _ : State) {
    EquivChecker Checker(Cache);
    size_t Equal = 0;
    for (size_t I = 0; I + 19 < Objs.size(); I += 19)
      Equal += Checker.equivalent(Cache.startFor(Objs[I]),
                                  Cache.startFor(Objs[I + 19]));
    benchmark::DoNotOptimize(Equal);
  }
}
BENCHMARK(BM_HopcroftKarpEquivalence);

static void BM_BehavioralPartition(benchmark::State &State) {
  const Fixture &F = Fixture::get();
  std::vector<ObjId> Objs = F.G->reachableObjs();
  DFACache Cache(*F.G);
  for (ObjId O : Objs)
    Cache.startFor(O);
  Cache.expandAll();
  for (auto _ : State) {
    DFAPartition Part(Cache);
    benchmark::DoNotOptimize(Part.numBlocks());
  }
}
BENCHMARK(BM_BehavioralPartition);

static void BM_HeapModelerEndToEnd(benchmark::State &State) {
  const Fixture &F = Fixture::get();
  for (auto _ : State) {
    DFACache Cache(*F.G);
    HeapModelerResult R = modelHeap(*F.G, Cache);
    benchmark::DoNotOptimize(R.NumClasses);
  }
}
BENCHMARK(BM_HeapModelerEndToEnd);

BENCHMARK_MAIN();
