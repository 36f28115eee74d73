//===-- tests/support/ParallelTest.cpp ---------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The chunking helpers (support/Parallel.h): boundary arithmetic,
// exactly-once coverage, and exception propagation.
//
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace mahjong;

TEST(Parallel, ChunkBeginPartitionsTheRange) {
  // Every (N, NumChunks) pair yields contiguous, non-overlapping,
  // exhaustive chunks whose sizes differ by at most one.
  for (size_t N : {0u, 1u, 2u, 7u, 8u, 9u, 100u, 1023u})
    for (size_t Chunks : {1u, 2u, 3u, 8u, 16u, 200u}) {
      EXPECT_EQ(chunkBegin(N, Chunks, 0), 0u);
      EXPECT_EQ(chunkBegin(N, Chunks, Chunks), N);
      size_t MinSize = N, MaxSize = 0;
      for (size_t C = 0; C < Chunks; ++C) {
        size_t B = chunkBegin(N, Chunks, C), E = chunkBegin(N, Chunks, C + 1);
        ASSERT_LE(B, E) << "N=" << N << " chunks=" << Chunks << " c=" << C;
        MinSize = std::min(MinSize, E - B);
        MaxSize = std::max(MaxSize, E - B);
      }
      EXPECT_LE(MaxSize - MinSize, 1u) << "N=" << N << " chunks=" << Chunks;
    }
}

TEST(Parallel, ParallelForCoversEachIndexExactlyOnce) {
  constexpr size_t N = 10007; // prime, so no chunk boundary aligns
  ThreadPool Pool(4);
  std::vector<std::atomic<uint32_t>> Hits(N);
  parallelFor(Pool, N, [&](size_t I) {
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Hits[I].load(), 1u) << "index " << I;
}

TEST(Parallel, ParallelChunksAssignsItemsDeterministically) {
  // The chunk an item lands in depends only on (N, NumChunks) — the
  // contract any caller keeping per-chunk state relies on.
  constexpr size_t N = 1000, Chunks = 8;
  ThreadPool Pool(4);
  std::vector<size_t> First(N), Second(N);
  for (std::vector<size_t> *Out : {&First, &Second})
    parallelChunks(Pool, N, Chunks, [&](size_t C, size_t B, size_t E) {
      for (size_t I = B; I < E; ++I)
        (*Out)[I] = C;
    });
  EXPECT_EQ(First, Second);
  // Contiguity: chunk ids are non-decreasing over the index space.
  EXPECT_TRUE(std::is_sorted(First.begin(), First.end()));
}

TEST(Parallel, SmallRangeRunsInlineAsOneChunk) {
  ThreadPool Pool(4);
  const std::thread::id Caller = std::this_thread::get_id();
  std::thread::id Ran;
  size_t Calls = 0;
  parallelChunks(Pool, 3, 1, [&](size_t C, size_t B, size_t E) {
    ++Calls;
    Ran = std::this_thread::get_id();
    EXPECT_EQ(C, 0u);
    EXPECT_EQ(B, 0u);
    EXPECT_EQ(E, 3u);
  });
  EXPECT_EQ(Calls, 1u);
  EXPECT_EQ(Ran, Caller) << "single chunk must run on the calling thread";
  // Empty range: body never runs.
  parallelFor(Pool, 0, [&](size_t) { FAIL() << "body called for N=0"; });
}

TEST(Parallel, WorkerExceptionPropagatesFromWait) {
  ThreadPool Pool(4);
  EXPECT_THROW(parallelFor(Pool, 512,
                           [](size_t I) {
                             if (I == 317)
                               throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  // The pool is reusable after an exception drained through wait().
  std::atomic<size_t> Count{0};
  parallelFor(Pool, 64, [&](size_t) { ++Count; });
  EXPECT_EQ(Count.load(), 64u);
}
