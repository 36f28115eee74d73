//===-- support/FlatHash.h - Open-addressing 64-bit key table -*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FlatMap64, the table behind every integer-keyed intern and dedup of the
/// points-to solver: context-sensitive entity and pointer-node interning,
/// PFG edge dedup, call-graph edge sets, the dispatch cache and the
/// receiver-grouping index. Those tables see one lookup per call edge or
/// PFG edge, so they are the solver's hot path; node-based
/// std::unordered_* pay an allocation per entry and a pointer chase per
/// probe there.
///
/// The table is a single array of (uint64_t key, uint32_t value) slots with
/// linear probing, a power-of-two capacity, splitmix64 as the hash and a
/// maximum load of 0.7. A slot is empty when its value is Empty, so every
/// 64-bit key is storable (key 0 included) but the value 0xFFFFFFFF is not:
/// a caller whose values may take that bit pattern stores them encoded.
/// There is no erase and no iteration API, so no output can depend on slot
/// order.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_SUPPORT_FLATHASH_H
#define MAHJONG_SUPPORT_FLATHASH_H

#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mahjong {

/// Open-addressing map from uint64_t keys to uint32_t values.
class FlatMap64 {
public:
  /// What find() returns for an absent key; never a stored value.
  static constexpr uint32_t Empty = 0xFFFFFFFFu;

  /// Maps \p Key to \p Value unless \p Key is already present.
  /// \returns the value \p Key now maps to and whether it was inserted.
  std::pair<uint32_t, bool> tryEmplace(uint64_t Key, uint32_t Value) {
    assert(Value != Empty && "the empty sentinel is not a storable value");
    if ((static_cast<size_t>(Size) + 1) * 10 > Slots.size() * 7)
      rehash(Slots.empty() ? MinCapacity : Slots.size() * 2);
    Slot &S = Slots[slotOf(Key)];
    if (S.Value != Empty)
      return {S.Value, false};
    S = {Key, Value};
    ++Size;
    return {Value, true};
  }

  /// Set-style insert: maps \p Key to 0 if absent. \returns true if new.
  bool insert(uint64_t Key) { return tryEmplace(Key, 0).second; }

  /// \returns the value of \p Key, or Empty if absent.
  uint32_t find(uint64_t Key) const {
    if (Size == 0)
      return Empty;
    return Slots[slotOf(Key)].Value;
  }

  /// Removes every entry. A table more than four times larger than its
  /// last contents needed is reallocated at that smaller size, so a table
  /// cleared before every use costs O(entries), not O(largest fill ever).
  void clear() {
    size_t Want = capacityFor(Size);
    if (Slots.size() > 4 * Want)
      std::vector<Slot>(Want, Slot{}).swap(Slots);
    else if (Size != 0)
      std::fill(Slots.begin(), Slots.end(), Slot{});
    Size = 0;
  }

  uint32_t size() const { return Size; }

  /// Number of slots; 0 before the first insert.
  size_t capacity() const { return Slots.size(); }

private:
  struct Slot {
    uint64_t Key = 0;
    uint32_t Value = Empty;
  };

  static constexpr size_t MinCapacity = 16;

  /// Smallest capacity holding \p N entries at load <= 0.7.
  static size_t capacityFor(size_t N) {
    size_t Cap = MinCapacity;
    while (N * 10 > Cap * 7)
      Cap *= 2;
    return Cap;
  }

  /// Index of the slot holding \p Key, or of the empty slot where it
  /// would go. Requires an allocated table with at least one empty slot.
  size_t slotOf(uint64_t Key) const {
    size_t Mask = Slots.size() - 1;
    size_t I = splitmix64(Key) & Mask;
    while (Slots[I].Value != Empty && Slots[I].Key != Key)
      I = (I + 1) & Mask;
    return I;
  }

  void rehash(size_t NewCapacity) {
    std::vector<Slot> Old(NewCapacity, Slot{});
    Old.swap(Slots);
    for (const Slot &S : Old)
      if (S.Value != Empty)
        Slots[slotOf(S.Key)] = S;
  }

  std::vector<Slot> Slots;
  uint32_t Size = 0;
};

} // namespace mahjong

#endif // MAHJONG_SUPPORT_FLATHASH_H
