//===-- support/PointsToSet.h - Chunked sparse bitmap sets ----*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The points-to set representation used by the solver: a sparse bitmap
/// stored as a sorted vector of (chunk index, 64-bit word) pairs, where
/// element e lives in chunk e/64 at bit e%64. Unions and differences are
/// merge-joins over the chunk arrays, so propagating a delta into a large
/// set costs O(chunks of the delta), not O(size of the set) — the
/// difference between a points-to solver that scales and one that is
/// quadratic in the heap. Iteration is in ascending element order and the
/// whole structure is deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_SUPPORT_POINTSTOSET_H
#define MAHJONG_SUPPORT_POINTSTOSET_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace mahjong {

/// A set of dense 32-bit ids as a chunked sparse bitmap.
class PointsToSet {
public:
  struct Chunk {
    uint32_t Index;
    uint64_t Word;
  };

  PointsToSet() = default;

  /// Inserts \p Elem. \returns true if the set changed.
  bool insert(uint32_t Elem) {
    uint32_t Idx = Elem >> 6;
    uint64_t Bit = 1ull << (Elem & 63);
    auto It = lowerBound(Idx);
    if (It != Chunks.end() && It->Index == Idx) {
      if (It->Word & Bit)
        return false;
      It->Word |= Bit;
    } else {
      Chunks.insert(It, {Idx, Bit});
    }
    ++Count;
    return true;
  }

  bool contains(uint32_t Elem) const {
    uint32_t Idx = Elem >> 6;
    auto It = std::lower_bound(
        Chunks.begin(), Chunks.end(), Idx,
        [](const Chunk &Ch, uint32_t Key) { return Ch.Index < Key; });
    return It != Chunks.end() && It->Index == Idx &&
           (It->Word & (1ull << (Elem & 63)));
  }

  /// Unions \p Other into this set. \returns true if the set changed.
  ///
  /// Cost is bounded by the *window* of this set at or above Other's
  /// first chunk index, never by the whole set: solver deltas carry
  /// overwhelmingly recently interned (= high) ids, so a delivery into a
  /// large accumulated set touches its tail, not its body. A union that
  /// adds nothing — the common case once a solver reaches its fixpoint —
  /// is a pure merge-join scan of that window and allocates nothing; a
  /// union that only sets bits in existing chunks ORs them in place; only
  /// genuinely new chunks shift the window right (backward in-place
  /// merge, amortized by vector capacity doubling).
  bool unionWith(const PointsToSet &Other) {
    if (Other.empty())
      return false;
    if (empty()) {
      *this = Other;
      return true;
    }
    const std::vector<Chunk> &OC = Other.Chunks;
    // Fast path: all new chunks beyond our current maximum.
    if (OC.front().Index > Chunks.back().Index) {
      Chunks.insert(Chunks.end(), OC.begin(), OC.end());
      Count += Other.Count;
      return true;
    }
    // Everything below Other's first chunk index is untouched by the join.
    size_t Lo =
        static_cast<size_t>(lowerBound(OC.front().Index) - Chunks.begin());
    // Pre-scan the window: does Other contribute any new bit, and how
    // many chunks does it add that we lack entirely?
    size_t I = Lo, J = 0, NewChunks = 0;
    bool Changed = false;
    while (J < OC.size()) {
      if (I >= Chunks.size() || OC[J].Index < Chunks[I].Index) {
        ++NewChunks;
        ++J;
        Changed = true;
      } else if (Chunks[I].Index < OC[J].Index) {
        ++I;
      } else {
        Changed |= (OC[J].Word & ~Chunks[I].Word) != 0;
        ++I;
        ++J;
      }
    }
    if (!Changed)
      return false;
    if (NewChunks == 0) {
      // Bits land only in chunks we already have: OR them in, in place.
      I = Lo;
      for (const Chunk &C : OC) {
        while (Chunks[I].Index < C.Index)
          ++I;
        uint64_t Added = C.Word & ~Chunks[I].Word;
        Chunks[I].Word |= Added;
        Count += std::popcount(Added);
        ++I;
      }
      return true;
    }
    // Backward in-place merge. When the delta is exhausted the write and
    // read cursors have met (every slot above came from a move, a merge,
    // or one of the NewChunks inserts), so the prefix [Lo, Ri) is already
    // in its final position and the merge stops at the window, not at the
    // start of the array.
    size_t OldSize = Chunks.size();
    Chunks.resize(OldSize + NewChunks);
    size_t W = Chunks.size(), Ri = OldSize;
    J = OC.size();
    while (J > 0) {
      if (Ri > Lo && Chunks[Ri - 1].Index > OC[J - 1].Index) {
        Chunks[--W] = Chunks[--Ri];
      } else if (Ri > Lo && Chunks[Ri - 1].Index == OC[J - 1].Index) {
        uint64_t Added = OC[J - 1].Word & ~Chunks[Ri - 1].Word;
        Count += std::popcount(Added);
        --W;
        --Ri;
        --J;
        Chunks[W] = {Chunks[Ri].Index, Chunks[Ri].Word | Added};
      } else {
        --W;
        --J;
        Chunks[W] = OC[J];
        Count += std::popcount(Chunks[W].Word);
      }
    }
    return true;
  }

  /// Restricts this set to elements inside one of the half-open \p Ranges
  /// ([lo, hi) pairs, sorted and disjoint) or contained in \p Overflow
  /// (may be null). The cast-filter primitive of pta::SetRepOps: when
  /// object ids are ranked in class-hierarchy order, a filter is a handful
  /// of ranges plus a small bitmap of late (context-sensitive) objects;
  /// with nothing ranked, it is no ranges and one bitmap, the plain
  /// intersection with *Overflow. Allocates nothing (chunks are compacted
  /// in place). Cost: one pass over this set's chunks with
  /// merge-join cursors into Ranges and Overflow, stopping once both
  /// cursors are exhausted.
  void
  intersectWithRanges(const std::vector<std::pair<uint32_t, uint32_t>> &Ranges,
                      const PointsToSet *Overflow = nullptr) {
    if (empty())
      return;
    const std::vector<Chunk> *OC =
        Overflow && !Overflow->empty() ? &Overflow->Chunks : nullptr;
    const size_t NumOC = OC ? OC->size() : 0;
    size_t Kept = 0, NewCount = 0, RI = 0, OI = 0;
    for (const Chunk &C : Chunks) {
      uint64_t Base = uint64_t(C.Index) << 6;
      while (RI < Ranges.size() && Ranges[RI].second <= Base)
        ++RI;
      while (OI < NumOC && (*OC)[OI].Index < C.Index)
        ++OI;
      if (RI == Ranges.size() && OI == NumOC)
        break; // nothing at or above this chunk can pass
      uint64_t Mask = 0;
      for (size_t K = RI;
           K < Ranges.size() && Ranges[K].first < Base + 64; ++K) {
        uint64_t LoBit = std::max<uint64_t>(Ranges[K].first, Base) - Base;
        uint64_t Len = std::min<uint64_t>(Ranges[K].second, Base + 64) -
                       (Base + LoBit);
        Mask |= (Len >= 64 ? ~0ull : ((1ull << Len) - 1)) << LoBit;
      }
      if (OI < NumOC && (*OC)[OI].Index == C.Index)
        Mask |= (*OC)[OI].Word;
      uint64_t Word = C.Word & Mask;
      if (Word) {
        Chunks[Kept++] = {C.Index, Word};
        NewCount += std::popcount(Word);
      }
    }
    Chunks.resize(Kept);
    Count = NewCount;
  }

  /// \returns true if this set and \p Other share at least one element.
  /// A merge-join scan with early exit; never allocates.
  bool anyCommon(const PointsToSet &Other) const {
    const std::vector<Chunk> &A = Chunks, &B = Other.Chunks;
    size_t I = 0, J = 0;
    while (I < A.size() && J < B.size()) {
      if (A[I].Index < B[J].Index)
        ++I;
      else if (B[J].Index < A[I].Index)
        ++J;
      else if (A[I].Word & B[J].Word)
        return true;
      else {
        ++I;
        ++J;
      }
    }
    return false;
  }

  /// Computes \p Other minus this set (the elements of Other we lack).
  PointsToSet differenceFrom(const PointsToSet &Other) const {
    PointsToSet Diff;
    const std::vector<Chunk> &A = Chunks;
    size_t I = 0;
    for (const Chunk &C : Other.Chunks) {
      while (I < A.size() && A[I].Index < C.Index)
        ++I;
      uint64_t Word = C.Word;
      if (I < A.size() && A[I].Index == C.Index)
        Word &= ~A[I].Word;
      if (Word) {
        Diff.Chunks.push_back({C.Index, Word});
        Diff.Count += std::popcount(Word);
      }
    }
    return Diff;
  }

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

  /// Read-only view of the (chunk index, word) pairs, ascending by index
  /// and never holding a zero word. Bulk consumers OR whole 64-element
  /// words through it instead of visiting elements one at a time (see
  /// PTAResult's context-insensitive projections).
  const std::vector<Chunk> &chunks() const { return Chunks; }

  /// Heap bytes backing this set — the chunk vector's *capacity*. The
  /// unit of PTAStats::WorkingSetBytes.
  size_t memoryBytes() const { return Chunks.capacity() * sizeof(Chunk); }

  /// Bytes of live chunk storage: chunk count × sizeof(Chunk), the data a
  /// set's contents actually occupy. A pure function of the contents —
  /// capacity slack is deliberately *excluded* (that is memoryBytes() /
  /// WorkingSetBytes territory), so engines that compute the same
  /// solution report the same number (PTAStats::SetBytes; pinned by
  /// tests/support/PointsToSetTest.cpp).
  size_t liveBytes() const { return Chunks.size() * sizeof(Chunk); }

  void clear() {
    Chunks.clear();
    Count = 0;
  }

  /// Forward iterator over the elements in ascending order.
  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const uint32_t *;
    using reference = uint32_t;

    const_iterator(const std::vector<Chunk> *Chunks, size_t Pos)
        : Chunks(Chunks), Pos(Pos) {
      if (Pos < Chunks->size())
        Word = (*Chunks)[Pos].Word;
    }

    uint32_t operator*() const {
      return ((*Chunks)[Pos].Index << 6) +
             static_cast<uint32_t>(std::countr_zero(Word));
    }

    const_iterator &operator++() {
      Word &= Word - 1; // clear the lowest set bit
      while (Word == 0 && ++Pos < Chunks->size())
        Word = (*Chunks)[Pos].Word;
      return *this;
    }

    const_iterator operator++(int) {
      const_iterator Old = *this;
      ++*this;
      return Old;
    }

    bool operator!=(const const_iterator &O) const {
      return Pos != O.Pos || (Pos < Chunks->size() && Word != O.Word);
    }
    bool operator==(const const_iterator &O) const { return !(*this != O); }

  private:
    const std::vector<Chunk> *Chunks;
    size_t Pos;
    uint64_t Word = 0;
  };

  const_iterator begin() const { return const_iterator(&Chunks, 0); }
  const_iterator end() const { return const_iterator(&Chunks, Chunks.size()); }

  /// Materializes the elements as a sorted vector.
  std::vector<uint32_t> toVector() const {
    std::vector<uint32_t> V;
    V.reserve(Count);
    for (uint32_t E : *this)
      V.push_back(E);
    return V;
  }

  friend bool operator==(const PointsToSet &A, const PointsToSet &B) {
    const std::vector<Chunk> &CA = A.Chunks, &CB = B.Chunks;
    if (A.Count != B.Count || CA.size() != CB.size())
      return false;
    for (size_t I = 0; I < CA.size(); ++I)
      if (CA[I].Index != CB[I].Index || CA[I].Word != CB[I].Word)
        return false;
    return true;
  }

private:
  std::vector<Chunk>::iterator lowerBound(uint32_t Idx) {
    return std::lower_bound(
        Chunks.begin(), Chunks.end(), Idx,
        [](const Chunk &C, uint32_t Key) { return C.Index < Key; });
  }

  std::vector<Chunk> Chunks;
  size_t Count = 0;
};

} // namespace mahjong

#endif // MAHJONG_SUPPORT_POINTSTOSET_H
