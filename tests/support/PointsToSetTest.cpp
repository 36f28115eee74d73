//===-- tests/support/PointsToSetTest.cpp ------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/PointsToSet.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <tuple>

using namespace mahjong;

TEST(PointsToSet, EmptyInitially) {
  PointsToSet S;
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.size(), 0u);
  EXPECT_FALSE(S.contains(0));
  EXPECT_EQ(S.begin(), S.end());
}

TEST(PointsToSet, InsertAndContains) {
  PointsToSet S;
  EXPECT_TRUE(S.insert(5));
  EXPECT_FALSE(S.insert(5));
  EXPECT_TRUE(S.insert(64)); // next chunk
  EXPECT_TRUE(S.insert(63)); // same chunk as 5
  EXPECT_EQ(S.size(), 3u);
  EXPECT_TRUE(S.contains(5));
  EXPECT_TRUE(S.contains(63));
  EXPECT_TRUE(S.contains(64));
  EXPECT_FALSE(S.contains(6));
  EXPECT_FALSE(S.contains(65));
}

TEST(PointsToSet, IterationIsAscending) {
  PointsToSet S;
  for (uint32_t E : {300u, 0u, 64u, 65u, 1u, 1000000u})
    S.insert(E);
  std::vector<uint32_t> Got(S.begin(), S.end());
  EXPECT_EQ(Got, (std::vector<uint32_t>{0, 1, 64, 65, 300, 1000000}));
  EXPECT_EQ(S.toVector(), Got);
}

TEST(PointsToSet, ChunkBoundaries) {
  PointsToSet S;
  for (uint32_t E : {63u, 64u, 127u, 128u})
    S.insert(E);
  EXPECT_EQ(S.size(), 4u);
  for (uint32_t E : {63u, 64u, 127u, 128u})
    EXPECT_TRUE(S.contains(E));
  EXPECT_FALSE(S.contains(62));
  EXPECT_FALSE(S.contains(129));
}

TEST(PointsToSet, UnionWithDisjoint) {
  PointsToSet A, B;
  A.insert(1);
  B.insert(100);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_FALSE(A.unionWith(B)); // now a subset
  EXPECT_EQ(A.size(), 2u);
  EXPECT_TRUE(A.contains(1));
  EXPECT_TRUE(A.contains(100));
  EXPECT_EQ(B.size(), 1u) << "union must not mutate the argument";
}

TEST(PointsToSet, UnionWithOverlapping) {
  PointsToSet A, B;
  for (uint32_t E : {1u, 2u, 70u})
    A.insert(E);
  for (uint32_t E : {2u, 70u, 71u})
    B.insert(E);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_EQ(A.size(), 4u);
}

TEST(PointsToSet, UnionWithEmptySides) {
  PointsToSet A, B;
  A.insert(3);
  EXPECT_FALSE(A.unionWith(B));
  EXPECT_TRUE(B.unionWith(A));
  EXPECT_EQ(B.size(), 1u);
}

TEST(PointsToSet, DifferenceFrom) {
  PointsToSet Mine, Other;
  for (uint32_t E : {1u, 64u})
    Mine.insert(E);
  for (uint32_t E : {1u, 2u, 64u, 65u, 200u})
    Other.insert(E);
  PointsToSet Diff = Mine.differenceFrom(Other); // Other \ Mine
  EXPECT_EQ(Diff.toVector(), (std::vector<uint32_t>{2, 65, 200}));
}

TEST(PointsToSet, DifferenceFromSubsetIsEmpty) {
  PointsToSet Mine, Other;
  for (uint32_t E : {1u, 2u, 3u})
    Mine.insert(E);
  Other.insert(2);
  EXPECT_TRUE(Mine.differenceFrom(Other).empty());
}

TEST(PointsToSet, EqualityComparesContents) {
  PointsToSet A, B;
  A.insert(1);
  A.insert(100);
  B.insert(100);
  B.insert(1);
  EXPECT_TRUE(A == B);
  B.insert(2);
  EXPECT_FALSE(A == B);
}

TEST(PointsToSet, ClearResets) {
  PointsToSet S;
  S.insert(42);
  S.clear();
  EXPECT_TRUE(S.empty());
  EXPECT_EQ(S.size(), 0u);
  EXPECT_FALSE(S.contains(42));
}

TEST(PointsToSet, NoOpUnionKeepsCountExact) {
  // Subset unions (no-ops) must neither change contents nor drift Count.
  PointsToSet A, Sub;
  for (uint32_t E : {1u, 63u, 64u, 200u, 4096u})
    A.insert(E);
  for (uint32_t E : {63u, 200u})
    Sub.insert(E);
  PointsToSet Before = A;
  for (int Round = 0; Round < 3; ++Round) {
    EXPECT_FALSE(A.unionWith(Sub));
    EXPECT_FALSE(A.unionWith(A));
    EXPECT_EQ(A.size(), 5u);
    EXPECT_TRUE(A == Before);
  }
}

TEST(PointsToSet, FastPathAppendKeepsCountExact) {
  // Other entirely beyond our maximum chunk: the append fast path.
  PointsToSet A, Tail;
  for (uint32_t E : {1u, 2u, 100u})
    A.insert(E);
  for (uint32_t E : {1000u, 1001u, 2000u})
    Tail.insert(E);
  EXPECT_TRUE(A.unionWith(Tail));
  EXPECT_EQ(A.size(), 6u);
  EXPECT_EQ(A.toVector(),
            (std::vector<uint32_t>{1, 2, 100, 1000, 1001, 2000}));
  EXPECT_FALSE(A.unionWith(Tail)) << "the same append again is a no-op";
  EXPECT_EQ(A.size(), 6u);
}

TEST(PointsToSet, OverlappingUnionKeepsCountExact) {
  // Shared chunks with partially-new words, interleaved with chunks only
  // one side has — the general merge.
  PointsToSet A, B;
  for (uint32_t E : {0u, 1u, 64u, 300u})
    A.insert(E);
  for (uint32_t E : {1u, 65u, 128u, 300u, 301u})
    B.insert(E);
  EXPECT_TRUE(A.unionWith(B));
  EXPECT_EQ(A.size(), 7u);
  EXPECT_EQ(A.toVector(), (std::vector<uint32_t>{0, 1, 64, 65, 128, 300, 301}));
  EXPECT_FALSE(A.unionWith(B)) << "B is now a subset";
  EXPECT_EQ(A.size(), 7u);
}

TEST(PointsToSet, NoOpUnionWithInterleavedUniqueChunks) {
  // A owns chunks Other lacks on both sides of every shared chunk: the
  // no-op pre-scan must skip over them without declaring a change.
  PointsToSet A, Sub;
  for (uint32_t E : {0u, 128u, 256u, 384u})
    A.insert(E);
  for (uint32_t E : {128u, 384u})
    Sub.insert(E);
  EXPECT_FALSE(A.unionWith(Sub));
  EXPECT_EQ(A.size(), 4u);
}

TEST(PointsToSet, LiveBytesAndMemoryBytesPinned) {
  // liveBytes is chunks x sizeof(Chunk), a pure function of the contents;
  // memoryBytes is capacity-based and may exceed it. Hand-built sets pin
  // both so the stats they feed (SetBytes vs WorkingSetBytes) cannot
  // silently swap meaning.
  PointsToSet S;
  EXPECT_EQ(S.liveBytes(), 0u);
  EXPECT_EQ(S.memoryBytes(), 0u);
  S.insert(5); // one chunk
  EXPECT_EQ(S.liveBytes(), sizeof(PointsToSet::Chunk));
  S.insert(63); // same chunk
  EXPECT_EQ(S.liveBytes(), sizeof(PointsToSet::Chunk));
  S.insert(64); // second chunk
  S.insert(300); // third chunk
  EXPECT_EQ(S.liveBytes(), 3 * sizeof(PointsToSet::Chunk));
  EXPECT_GE(S.memoryBytes(), S.liveBytes())
      << "capacity slack counts toward memoryBytes only";
  // Two sets with equal contents report equal liveBytes regardless of
  // how they were built (engine-invariance of SetBytes rests on this).
  PointsToSet T;
  for (uint32_t E : {300u, 64u, 63u, 5u})
    T.insert(E);
  EXPECT_TRUE(S == T);
  EXPECT_EQ(S.liveBytes(), T.liveBytes());
}

TEST(PointsToSet, IntersectWithRangesBasics) {
  PointsToSet S;
  for (uint32_t E : {0u, 5u, 63u, 64u, 65u, 128u, 300u, 4096u})
    S.insert(E);
  // Half-open [5, 65) plus [300, 301): keeps 5, 63, 64, 300.
  S.intersectWithRanges({{5, 65}, {300, 301}});
  EXPECT_EQ(S.toVector(), (std::vector<uint32_t>{5, 63, 64, 300}));
  // Empty range list clears everything.
  S.intersectWithRanges({});
  EXPECT_TRUE(S.empty());
}

TEST(PointsToSet, IntersectWithRangesChunkBoundaries) {
  // Bounds at 63/64/65 cross the word edge in every alignment; a range
  // spanning >= 64 bits inside one chunk must not shift by 64 (UB).
  for (auto [Lo, Hi, Want] :
       std::initializer_list<std::tuple<uint32_t, uint32_t,
                                        std::vector<uint32_t>>>{
           {0, 64, {0, 63}},
           {0, 65, {0, 63, 64}},
           {63, 64, {63}},
           {63, 65, {63, 64}},
           {64, 65, {64}},
           {64, 128, {64, 127}},
           {0, 129, {0, 63, 64, 127, 128}},
       }) {
    PointsToSet S;
    for (uint32_t E : {0u, 63u, 64u, 127u, 128u})
      S.insert(E);
    S.intersectWithRanges({{Lo, Hi}});
    EXPECT_EQ(S.toVector(), Want) << "[" << Lo << ", " << Hi << ")";
  }
}

TEST(PointsToSet, IntersectWithRangesHighIdsNoOverflow) {
  // Ids near 2^26 exercise the Index<<6 arithmetic: the base must widen
  // to 64 bits before shifting or the mask lands on the wrong elements.
  PointsToSet S;
  const uint32_t Big = 1u << 26;
  for (uint32_t E : {Big - 1, Big, Big + 63, Big + 64})
    S.insert(E);
  S.intersectWithRanges({{Big, Big + 64}});
  EXPECT_EQ(S.toVector(), (std::vector<uint32_t>{Big, Big + 63}));
}

TEST(PointsToSet, IntersectWithRangesOverflowSet) {
  // The overflow bitmap admits elements outside every range — the
  // hierarchy backend's late (context-sensitive) objects.
  PointsToSet S;
  for (uint32_t E : {1u, 10u, 100u, 1000u, 5000u})
    S.insert(E);
  PointsToSet Overflow;
  Overflow.insert(1000);
  Overflow.insert(7777); // not in S: must not appear
  S.intersectWithRanges({{0, 11}}, &Overflow);
  EXPECT_EQ(S.toVector(), (std::vector<uint32_t>{1, 10, 1000}));
  // Null overflow behaves as empty.
  PointsToSet T;
  T.insert(42);
  T.intersectWithRanges({{100, 200}}, nullptr);
  EXPECT_TRUE(T.empty());
}

TEST(PointsToSet, IntersectWithRangesMatchesIntersectWith) {
  // Range intersection against intersection with the same elements as a
  // bitmap (no ranges), over a pseudo-random set and random disjoint
  // ranges.
  std::mt19937 Rng(7);
  for (int Trial = 0; Trial < 20; ++Trial) {
    PointsToSet S;
    for (int I = 0; I < 200; ++I)
      S.insert(Rng() % 10000);
    std::vector<std::pair<uint32_t, uint32_t>> Ranges;
    uint32_t Lo = Rng() % 50;
    while (Lo < 10000) {
      uint32_t Hi = Lo + 1 + Rng() % 300;
      Ranges.push_back({Lo, Hi});
      Lo = Hi + 1 + Rng() % 200;
    }
    PointsToSet Bitmap;
    for (auto [RLo, RHi] : Ranges)
      for (uint32_t E = RLo; E < RHi; ++E)
        Bitmap.insert(E);
    PointsToSet ViaRanges = S, ViaBitmap = S;
    ViaRanges.intersectWithRanges(Ranges);
    ViaBitmap.intersectWithRanges({}, &Bitmap);
    EXPECT_TRUE(ViaRanges == ViaBitmap) << "trial " << Trial;
    EXPECT_EQ(ViaRanges.size(), ViaBitmap.size());
  }
}

TEST(PointsToSet, IntersectWithRangesStopsPastBothCursors) {
  // The filter with nothing ranked is no ranges and one bitmap: it must
  // equal the element-wise intersection with the bitmap, including the
  // tail past the bitmap's last chunk that the early exit skips. With
  // ranges too, the set's tail lies past whichever cursor ends last, in
  // either order.
  std::mt19937 Rng(23);
  for (int Trial = 0; Trial < 30; ++Trial) {
    PointsToSet S, Bitmap;
    for (int I = 0; I < 300; ++I)
      S.insert(Rng() % 20000);
    const uint32_t BitmapEnd = 1 + Rng() % 12000;
    for (int I = 0; I < 100; ++I)
      Bitmap.insert(Rng() % BitmapEnd);
    PointsToSet ViaRanges = S, ViaBitmap;
    ViaRanges.intersectWithRanges({}, &Bitmap);
    for (uint32_t E : S)
      if (Bitmap.contains(E))
        ViaBitmap.insert(E);
    EXPECT_TRUE(ViaRanges == ViaBitmap) << "trial " << Trial;
    EXPECT_EQ(ViaRanges.size(), ViaBitmap.size()) << "trial " << Trial;

    const uint32_t Lo = Rng() % 15000, Hi = Lo + 1 + Rng() % 3000;
    PointsToSet Both = S, Want;
    Both.intersectWithRanges({{Lo, Hi}}, &Bitmap);
    for (uint32_t E : S)
      if ((E >= Lo && E < Hi) || Bitmap.contains(E))
        Want.insert(E);
    EXPECT_TRUE(Both == Want) << "trial " << Trial;
    EXPECT_EQ(Both.size(), Want.size()) << "trial " << Trial;
  }
}

/// Property: a random operation sequence matches std::set semantics.
class PointsToSetRandomTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PointsToSetRandomTest, MatchesStdSetReference) {
  std::mt19937 Rng(GetParam());
  PointsToSet S;
  std::set<uint32_t> Ref;
  auto RandomElem = [&] {
    // Mix tight and sparse ids so chunks are exercised both dense and
    // sparse.
    return Rng() % 2 ? Rng() % 128 : Rng() % 100000;
  };
  for (int Op = 0; Op < 500; ++Op) {
    switch (Rng() % 3) {
    case 0: {
      uint32_t E = RandomElem();
      ASSERT_EQ(S.insert(E), Ref.insert(E).second);
      break;
    }
    case 1: {
      PointsToSet B;
      std::set<uint32_t> BRef;
      for (int I = 0, N = Rng() % 20; I < N; ++I) {
        uint32_t E = RandomElem();
        B.insert(E);
        BRef.insert(E);
      }
      bool Changed = S.unionWith(B);
      size_t Before = Ref.size();
      Ref.insert(BRef.begin(), BRef.end());
      ASSERT_EQ(Changed, Ref.size() != Before);
      break;
    }
    case 2: {
      uint32_t E = RandomElem();
      ASSERT_EQ(S.contains(E), Ref.count(E) > 0);
      break;
    }
    }
    ASSERT_EQ(S.size(), Ref.size());
  }
  ASSERT_EQ(S.toVector(), std::vector<uint32_t>(Ref.begin(), Ref.end()));
  // differenceFrom against a random probe set.
  PointsToSet Probe;
  std::set<uint32_t> ProbeRef;
  for (int I = 0; I < 100; ++I) {
    uint32_t E = RandomElem();
    Probe.insert(E);
    ProbeRef.insert(E);
  }
  std::vector<uint32_t> WantDiff;
  for (uint32_t E : ProbeRef)
    if (!Ref.count(E))
      WantDiff.push_back(E);
  ASSERT_EQ(S.differenceFrom(Probe).toVector(), WantDiff);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PointsToSetRandomTest,
                         ::testing::Range(1u, 13u));
