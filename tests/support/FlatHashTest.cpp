//===-- tests/support/FlatHashTest.cpp ---------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FlatHash.h"

#include "pta/PointerAnalysis.h"
#include "pta/SolverCore.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <random>
#include <unordered_map>
#include <vector>

using namespace mahjong;
using namespace mahjong::pta;

namespace {

/// A key drawn from one of the shapes the solver stores: small dense
/// keys (0 included), packed (context, entity) pairs, pointer-node keys
/// with the kind bits set, and multiples of a large power of two, which
/// are all equal modulo every capacity the table reaches.
uint64_t drawKey(std::mt19937_64 &Rng) {
  switch (Rng() % 5) {
  case 0:
    return Rng() % 64;
  case 1:
    return ((Rng() % 512) << 32) | (Rng() % 4096);
  case 2:
    return PTAResult::KindField | ((Rng() % 4096) << PTAResult::FieldBits) |
           (Rng() % 16);
  case 3:
    return PTAResult::KindStatic | (Rng() % 256);
  default:
    return (Rng() % 1024) << 40;
  }
}

/// Checks every key of \p Ref against \p M, plus absent probes.
void expectSameContents(const FlatMap64 &M,
                        const std::unordered_map<uint64_t, uint32_t> &Ref,
                        std::mt19937_64 &Rng) {
  ASSERT_EQ(M.size(), Ref.size());
  for (const auto &[K, V] : Ref)
    ASSERT_EQ(M.find(K), V) << "key " << K;
  for (int I = 0; I < 200; ++I) {
    uint64_t K = Rng();
    auto It = Ref.find(K);
    ASSERT_EQ(M.find(K), It == Ref.end() ? FlatMap64::Empty : It->second);
  }
}

} // namespace

TEST(FlatHash, EmptyTableFindsNothing) {
  FlatMap64 M;
  EXPECT_EQ(M.size(), 0u);
  EXPECT_EQ(M.capacity(), 0u);
  EXPECT_EQ(M.find(0), FlatMap64::Empty);
  EXPECT_EQ(M.find(~0ull), FlatMap64::Empty);
  M.clear();
  EXPECT_EQ(M.size(), 0u);
}

TEST(FlatHash, KeyZeroAndAllOnesAreOrdinaryKeys) {
  FlatMap64 M;
  EXPECT_EQ(M.find(0), FlatMap64::Empty);
  EXPECT_EQ(M.tryEmplace(0, 5), std::make_pair(5u, true));
  EXPECT_EQ(M.tryEmplace(~0ull, 6), std::make_pair(6u, true));
  EXPECT_EQ(M.tryEmplace(0, 9), std::make_pair(5u, false))
      << "a present key keeps its first value";
  EXPECT_EQ(M.find(0), 5u);
  EXPECT_EQ(M.find(~0ull), 6u);
  EXPECT_EQ(M.size(), 2u);
}

TEST(FlatHash, InsertIsSetStyle) {
  FlatMap64 M;
  EXPECT_TRUE(M.insert(PTAResult::KindField | 3));
  EXPECT_FALSE(M.insert(PTAResult::KindField | 3));
  EXPECT_TRUE(M.insert(PTAResult::KindStatic | 3));
  EXPECT_TRUE(M.insert(3));
  EXPECT_EQ(M.size(), 3u);
  EXPECT_EQ(M.find(3), 0u);
}

TEST(FlatHash, ProbeWrapsAroundTheEndOfTheTable) {
  // Keys whose home slot is the last one of the initial 16-slot table:
  // all but the first must probe past the end and wrap to slot 0.
  std::vector<uint64_t> Keys;
  for (uint64_t K = 0; Keys.size() < 11; ++K)
    if ((splitmix64(K) & 15) == 15)
      Keys.push_back(K);
  FlatMap64 M;
  for (uint32_t I = 0; I < Keys.size(); ++I)
    EXPECT_TRUE(M.tryEmplace(Keys[I], I).second);
  EXPECT_EQ(M.capacity(), 16u) << "11 entries fit under load 0.7";
  for (uint32_t I = 0; I < Keys.size(); ++I)
    EXPECT_EQ(M.find(Keys[I]), I);
  EXPECT_EQ(M.find(Keys.back() + 1), FlatMap64::Empty);
}

TEST(FlatHash, MatchesUnorderedMapThroughSeveralDoublings) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    SCOPED_TRACE(Seed);
    std::mt19937_64 Rng(Seed * 0x9e3779b97f4a7c15ull);
    FlatMap64 M;
    std::unordered_map<uint64_t, uint32_t> Ref;
    size_t LastCapacity = 0;
    unsigned Doublings = 0;
    for (int Op = 0; Op < 60000; ++Op) {
      uint64_t K = drawKey(Rng);
      uint32_t V = static_cast<uint32_t>(Rng() % FlatMap64::Empty);
      if (Rng() % 4 == 0) {
        bool New = Ref.try_emplace(K, 0).second;
        ASSERT_EQ(M.insert(K), New);
      } else if (Rng() % 3 == 0) {
        auto It = Ref.find(K);
        ASSERT_EQ(M.find(K), It == Ref.end() ? FlatMap64::Empty : It->second);
      } else {
        auto [It, New] = Ref.try_emplace(K, V);
        ASSERT_EQ(M.tryEmplace(K, V), std::make_pair(It->second, New));
      }
      ASSERT_EQ(M.size(), Ref.size());
      if (M.capacity() != LastCapacity) {
        if (LastCapacity != 0) {
          ASSERT_EQ(M.capacity(), 2 * LastCapacity);
          ++Doublings;
        }
        LastCapacity = M.capacity();
        expectSameContents(M, Ref, Rng); // right after every rehash
      }
      ASSERT_LE(M.size() * 10, M.capacity() * 7) << "load stays <= 0.7";
    }
    EXPECT_GE(Doublings, 5u);
    expectSameContents(M, Ref, Rng);
  }
}

TEST(FlatHash, ClearAfterALargeFillShrinksForSmallReuse) {
  // The receiver-grouping index's pattern: cleared before every call, one
  // outsized call, then many small ones.
  std::mt19937_64 Rng(21);
  FlatMap64 M;
  for (uint32_t I = 0; I < 100000; ++I)
    M.tryEmplace(PTAResult::KindField | (static_cast<uint64_t>(I) << 20), I);
  size_t Large = M.capacity();
  ASSERT_GE(Large, 100000u);

  M.clear();
  EXPECT_EQ(M.size(), 0u);
  EXPECT_EQ(M.capacity(), Large)
      << "clearing a table its contents needed keeps its storage";
  M.tryEmplace(7, 1);
  M.clear(); // the last contents (one entry) need the minimum size
  EXPECT_LE(M.capacity(), 16u) << "an oversized table shrinks on clear";

  for (int Round = 0; Round < 1000; ++Round) {
    std::unordered_map<uint64_t, uint32_t> Ref;
    for (int I = 0, N = Round % 9; I < N; ++I) {
      uint64_t K = drawKey(Rng);
      uint32_t V = static_cast<uint32_t>(Ref.size());
      auto [It, New] = Ref.try_emplace(K, V);
      ASSERT_EQ(M.tryEmplace(K, V), std::make_pair(It->second, New));
    }
    expectSameContents(M, Ref, Rng);
    ASSERT_LE(M.capacity(), 64u) << "small fills keep the table small";
    M.clear();
    ASSERT_EQ(M.find(7), FlatMap64::Empty);
  }
}

TEST(FlatHash, InvalidCalleeIsStoredEncoded) {
  // The dispatch cache stores "no callee": the invalid id's raw value is
  // the empty sentinel, so it must go in encoded and come back invalid.
  ASSERT_EQ(MethodId::invalid().raw(), FlatMap64::Empty);
  FlatMap64 Cache;
  uint64_t NoCallee = (uint64_t{3} << 32) | 1;
  uint64_t HasCallee = (uint64_t{4} << 32) | 1;
  EXPECT_TRUE(Cache.tryEmplace(NoCallee, encodeCallee(MethodId())).second);
  EXPECT_TRUE(Cache.tryEmplace(HasCallee, encodeCallee(MethodId(0))).second);
  uint32_t Stored = Cache.find(NoCallee);
  ASSERT_NE(Stored, FlatMap64::Empty) << "a cached miss must be present";
  EXPECT_FALSE(decodeCallee(Stored).isValid());
  EXPECT_EQ(decodeCallee(Cache.find(HasCallee)), MethodId(0));
  EXPECT_FALSE(Cache.tryEmplace(NoCallee, encodeCallee(MethodId(5))).second)
      << "a cached miss is not recomputed";
  EXPECT_EQ(Cache.size(), 2u);
}
