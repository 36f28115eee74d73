//===-- support/Parallel.h - Chunked fan-out over ThreadPool --*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chunking helpers over support::ThreadPool, used by the heap modeler's
/// per-type bucket fan-out: split a dense index range into contiguous
/// chunks, run each chunk as one pool task, and rely on ThreadPool::wait()
/// to propagate the first worker exception. Keeping that slicing here
/// means one tested code path for boundary arithmetic (empty ranges, more
/// chunks than items) and one exception contract.
///
/// Determinism note: chunk boundaries depend only on (N, NumChunks),
/// never on thread scheduling, so a caller that derives per-chunk state
/// gets the same item-to-chunk assignment on every run and at every pool
/// width.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_SUPPORT_PARALLEL_H
#define MAHJONG_SUPPORT_PARALLEL_H

#include "support/ThreadPool.h"

#include <algorithm>
#include <cstddef>

namespace mahjong {

/// First index of chunk \p Chunk when [0, N) is cut into \p NumChunks
/// contiguous near-equal pieces (the first N % NumChunks chunks carry one
/// extra item). chunkBegin(NumChunks) == N, so chunk c spans
/// [chunkBegin(c), chunkBegin(c + 1)).
inline size_t chunkBegin(size_t N, size_t NumChunks, size_t Chunk) {
  size_t Base = N / NumChunks, Extra = N % NumChunks;
  return Chunk * Base + std::min(Chunk, Extra);
}

/// Cuts [0, N) into exactly \p NumChunks contiguous chunks and runs
/// \p Body(ChunkIdx, Begin, End) for every non-empty chunk on \p Pool,
/// blocking until all finish. The first exception thrown by any chunk is
/// rethrown from the final wait. With NumChunks == 1 (or N small enough
/// that only one chunk is non-empty) the body runs inline on the calling
/// thread — callers get an identical code path with zero handoff cost.
template <typename BodyFn>
void parallelChunks(ThreadPool &Pool, size_t N, size_t NumChunks,
                    const BodyFn &Body) {
  if (N == 0)
    return;
  NumChunks = std::max<size_t>(NumChunks, 1);
  size_t NonEmpty = std::min(N, NumChunks);
  if (NonEmpty == 1) {
    Body(size_t(0), size_t(0), N);
    return;
  }
  for (size_t C = 0; C < NumChunks; ++C) {
    size_t Begin = chunkBegin(N, NumChunks, C);
    size_t End = chunkBegin(N, NumChunks, C + 1);
    if (Begin == End)
      continue;
    Pool.enqueue([&Body, C, Begin, End] { Body(C, Begin, End); });
  }
  Pool.wait();
}

/// Runs \p Body(I) for every I in [0, N) across \p Pool. Work is split
/// into more chunks than workers (4x oversubscription) so uneven items —
/// the modeler's type buckets differ by orders of magnitude — still load-
/// balance, while tiny ranges collapse to one inline chunk. Exceptions
/// propagate through ThreadPool::wait() exactly as with parallelChunks.
template <typename BodyFn>
void parallelFor(ThreadPool &Pool, size_t N, const BodyFn &Body) {
  size_t NumChunks = std::max<size_t>(size_t(Pool.numThreads()) * 4, 1);
  parallelChunks(Pool, N, NumChunks,
                 [&Body](size_t, size_t Begin, size_t End) {
                   for (size_t I = Begin; I < End; ++I)
                     Body(I);
                 });
}

} // namespace mahjong

#endif // MAHJONG_SUPPORT_PARALLEL_H
