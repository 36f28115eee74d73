//===-- tests/support/InternerTest.cpp ---------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Interner.h"

#include "support/Ids.h"

#include <gtest/gtest.h>

using namespace mahjong;

namespace {
struct TestTag;
using TestId = Id<TestTag>;
} // namespace

TEST(Interner, AssignsDenseIdsInInsertionOrder) {
  Interner<TestId, uint64_t> I;
  EXPECT_EQ(I.intern(42).idx(), 0u);
  EXPECT_EQ(I.intern(7).idx(), 1u);
  EXPECT_EQ(I.intern(42).idx(), 0u) << "re-interning must return the same id";
  EXPECT_EQ(I.size(), 2u);
}

TEST(Interner, GetReturnsInternedValue) {
  Interner<TestId, uint64_t> I;
  TestId A = I.intern(123456789ull);
  EXPECT_EQ(I.get(A), 123456789ull);
}

TEST(Interner, LookupDoesNotIntern) {
  Interner<TestId, uint64_t> I;
  EXPECT_FALSE(I.lookup(9).isValid());
  EXPECT_EQ(I.size(), 0u);
  I.intern(9);
  EXPECT_TRUE(I.lookup(9).isValid());
  EXPECT_EQ(I.size(), 1u);
}

TEST(Interner, FlatUint64KeysAreDenseInFirstSeenOrder) {
  // The uint64_t specialisation (FlatMap64 underneath) over the key shapes
  // the solver interns: 0, packed pairs, and pointer-node keys whose top
  // two bits carry the node kind.
  std::vector<uint64_t> Keys = {0,
                                1,
                                (uint64_t{7} << 32) | 3,
                                1ull << 62,
                                (1ull << 62) | (uint64_t{5} << 20) | 2,
                                2ull << 62,
                                (2ull << 62) | 9,
                                ~0ull};
  for (uint64_t I = 1; I <= 5000; ++I) // distinct from the keys above
    Keys.push_back((I % 3) << 62 | (I * 0x10001ull));
  Interner<TestId, uint64_t> In;
  for (size_t I = 0; I < Keys.size(); ++I) {
    EXPECT_FALSE(In.lookup(Keys[I]).isValid()) << "unseen key " << Keys[I];
    EXPECT_EQ(In.intern(Keys[I]).idx(), I);
  }
  ASSERT_EQ(In.size(), Keys.size());
  for (size_t I = 0; I < Keys.size(); ++I) {
    EXPECT_EQ(In.intern(Keys[I]).idx(), I) << "re-interning is stable";
    EXPECT_EQ(In.lookup(Keys[I]).idx(), I);
    EXPECT_EQ(In.get(TestId(static_cast<uint32_t>(I))), Keys[I]);
  }
  EXPECT_EQ(In.size(), Keys.size()) << "lookups and re-interns add nothing";
  EXPECT_FALSE(In.lookup(3ull << 62).isValid());
}

TEST(Interner, VectorKeysWithVectorHash) {
  Interner<TestId, std::vector<uint32_t>, VectorHash> I;
  TestId Empty = I.intern({});
  TestId AB = I.intern({1, 2});
  TestId BA = I.intern({2, 1});
  EXPECT_NE(AB, BA) << "order matters for vector keys";
  EXPECT_EQ(I.intern({}), Empty);
  EXPECT_EQ(I.intern({1, 2}), AB);
  EXPECT_EQ(I.get(AB), (std::vector<uint32_t>{1, 2}));
}

TEST(StrongIds, DistinctTagsDoNotCompare) {
  TypeId T(3);
  EXPECT_EQ(T.idx(), 3u);
  EXPECT_TRUE(T.isValid());
  EXPECT_FALSE(TypeId::invalid().isValid());
  EXPECT_LT(TypeId(1), TypeId(2));
  EXPECT_EQ(std::hash<TypeId>()(TypeId(7)), std::hash<uint32_t>()(7u));
}
