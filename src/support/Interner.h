//===-- support/Interner.h - Dense interning tables -----------*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interning of values to dense 32-bit ids, handed out in first-seen
/// order. Interned values are stored once; ids index a side vector for
/// O(1) reverse lookup.
///
/// Two forms: the generic one, over a node-based std::unordered_map, serves
/// the vector keys (determinized automaton states, snapshot sets); the
/// uint64_t specialisation, over the flat open-addressing FlatMap64, serves
/// every packed integer key of the solver (context-sensitive variables,
/// objects and methods, pointer nodes and call-graph call sites), where
/// interning is the hot path. Calling contexts, interned once per
/// receiver group, are neither: pta::ContextTable is a prefix trie over
/// one FlatMap64, so a context costs a probe per element, not a vector.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_SUPPORT_INTERNER_H
#define MAHJONG_SUPPORT_INTERNER_H

#include "support/FlatHash.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace mahjong {

/// Hash for vectors of integral values (FNV-1a over the elements).
struct VectorHash {
  template <typename T>
  size_t operator()(const std::vector<T> &V) const noexcept {
    size_t H = 1469598103934665603ull;
    for (const T &E : V) {
      H ^= static_cast<size_t>(E);
      H *= 1099511628211ull;
    }
    return H;
  }
};

/// Interns values of type \p V, handing out ids of type \p IdT in insertion
/// order. \p IdT must be constructible from uint32_t and expose idx().
template <typename IdT, typename V, typename Hash = std::hash<V>>
class Interner {
public:
  /// Returns the id for \p Value, interning it on first sight.
  IdT intern(const V &Value) {
    auto [It, Inserted] =
        Map.try_emplace(Value, static_cast<uint32_t>(Values.size()));
    if (Inserted)
      Values.push_back(Value);
    return IdT(It->second);
  }

  /// Returns the id for \p Value if already interned, an invalid id else.
  IdT lookup(const V &Value) const {
    auto It = Map.find(Value);
    return It == Map.end() ? IdT::invalid() : IdT(It->second);
  }

  /// Returns the stored value for \p Id. The reference is invalidated by
  /// the next intern() that adds a value (the backing vector may move), so
  /// copy the value before interning anything else.
  const V &get(IdT Id) const {
    assert(Id.idx() < Values.size() && "interner id out of range");
    return Values[Id.idx()];
  }

  uint32_t size() const { return static_cast<uint32_t>(Values.size()); }

private:
  std::unordered_map<V, uint32_t, Hash> Map;
  std::vector<V> Values;
};

/// Interning of packed 64-bit keys through a FlatMap64. Same contract as
/// the generic form; get() returns by value, so it survives later interns.
template <typename IdT> class Interner<IdT, uint64_t, std::hash<uint64_t>> {
public:
  IdT intern(uint64_t Value) {
    auto [Id, Inserted] =
        Map.tryEmplace(Value, static_cast<uint32_t>(Values.size()));
    if (Inserted)
      Values.push_back(Value);
    return IdT(Id);
  }

  IdT lookup(uint64_t Value) const {
    uint32_t Id = Map.find(Value);
    return Id == FlatMap64::Empty ? IdT::invalid() : IdT(Id);
  }

  uint64_t get(IdT Id) const {
    assert(Id.idx() < Values.size() && "interner id out of range");
    return Values[Id.idx()];
  }

  uint32_t size() const { return static_cast<uint32_t>(Values.size()); }

private:
  FlatMap64 Map;
  std::vector<uint64_t> Values;
};

} // namespace mahjong

#endif // MAHJONG_SUPPORT_INTERNER_H
