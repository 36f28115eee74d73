//===-- tests/net/SnapshotRegistryTest.cpp -----------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The RCU-style registry: epoch/digest bookkeeping, pin() keeping a
// retired snapshot alive until released, failed swaps leaving the current
// epoch untouched — and the cache-isolation audit: each epoch owns its
// QueryEngine and cache, so an answer cached before a swap can never be
// served for the snapshot published after it.
//
//===----------------------------------------------------------------------===//

#include "net/SnapshotRegistry.h"

#include "../TestUtil.h"
#include "serve/Snapshot.h"

#include <gtest/gtest.h>

#include <fstream>

using namespace mahjong;
using namespace mahjong::net;
using namespace mahjong::test;

namespace {

// Two programs sharing the variable key Main.main/0::x with *different*
// points-to answers, so a cross-epoch cache leak is observable.
std::shared_ptr<const serve::SnapshotData> snapTwoObjects() {
  Analyzed A = analyze(R"(
    class A { }
    class B extends A { }
    class Main {
      static method main() {
        x = new A;
        x = new B;
      }
    }
  )");
  return std::make_shared<serve::SnapshotData>(serve::buildSnapshot(*A.R));
}

std::shared_ptr<const serve::SnapshotData> snapOneObject() {
  Analyzed A = analyze(R"(
    class A { }
    class Main {
      static method main() {
        x = new A;
      }
    }
  )");
  return std::make_shared<serve::SnapshotData>(serve::buildSnapshot(*A.R));
}

} // namespace

TEST(SnapshotRegistry, SeedsEpochOneWithContentDigest) {
  auto Data = snapTwoObjects();
  uint64_t Expect = serve::snapshotDigest(*Data);
  SnapshotRegistry Reg(Data, "<memory>");
  auto Pin = Reg.pin();
  EXPECT_EQ(Pin->epoch(), 1u);
  EXPECT_EQ(Pin->digest(), Expect);
  EXPECT_EQ(Pin->source(), "<memory>");
  EXPECT_EQ(Reg.swapCount(), 0u);
  EXPECT_EQ(Reg.retiredAlive(), 0u);
}

TEST(SnapshotRegistry, PublishBumpsEpochAndRetiresTheOld) {
  SnapshotRegistry Reg(snapTwoObjects(), "a");
  auto Old = Reg.pin();
  EXPECT_EQ(Reg.publish(snapOneObject(), "b"), 2u);
  auto New = Reg.pin();
  EXPECT_EQ(New->epoch(), 2u);
  EXPECT_NE(New->digest(), Old->digest());
  EXPECT_EQ(Reg.swapCount(), 1u);
  // Old is retired but alive: our pin still holds it.
  EXPECT_EQ(Reg.retiredAlive(), 1u);
  Old.reset();
  EXPECT_EQ(Reg.retiredAlive(), 0u);
}

TEST(SnapshotRegistry, DigestIsContentNotIdentity) {
  // Two independently built snapshots of the same program must digest
  // identically — the digest identifies content, not the allocation.
  auto A = snapTwoObjects();
  auto B = snapTwoObjects();
  EXPECT_EQ(serve::snapshotDigest(*A), serve::snapshotDigest(*B));
  EXPECT_NE(serve::snapshotDigest(*A),
            serve::snapshotDigest(*snapOneObject()));
}

TEST(SnapshotRegistry, FailedSwapLeavesCurrentUntouched) {
  SnapshotRegistry Reg(snapTwoObjects(), "a");
  auto Before = Reg.pin();
  std::string Err;
  EXPECT_FALSE(Reg.swapFromFile("/nonexistent/nope.mjsnap", Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_EQ(Reg.pin().get(), Before.get());
  EXPECT_EQ(Reg.swapCount(), 0u);

  // Corrupt bytes: decodes must fail validation, not publish garbage.
  std::string Bad = testing::TempDir() + "/corrupt.mjsnap";
  std::ofstream(Bad) << "these are not snapshot bytes";
  EXPECT_FALSE(Reg.swapFromFile(Bad, Err));
  EXPECT_EQ(Reg.pin().get(), Before.get());
}

TEST(SnapshotRegistry, SwapFromFilePublishesTheDecodedSnapshot) {
  auto Data = snapOneObject();
  std::string Path = testing::TempDir() + "/swap_ok.mjsnap";
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << serve::encodeSnapshot(*Data);
  }
  SnapshotRegistry Reg(snapTwoObjects(), "a");
  std::string Err;
  ASSERT_TRUE(Reg.swapFromFile(Path, Err)) << Err;
  auto Pin = Reg.pin();
  EXPECT_EQ(Pin->epoch(), 2u);
  EXPECT_EQ(Pin->digest(), serve::snapshotDigest(*Data));
  EXPECT_EQ(Pin->source(), Path);
}

TEST(SnapshotRegistry, CachesAreEpochScopedNeverStaleAcrossSwap) {
  SnapshotRegistry Reg(snapTwoObjects(), "a");

  // Warm epoch 1's cache: x points to two objects here.
  auto E1 = Reg.pin();
  serve::QueryResult R1 = E1->engine().run("points-to Main.main/0::x");
  ASSERT_TRUE(R1.Ok) << R1.Error;
  ASSERT_EQ(R1.items().size(), 2u);
  // Run it again so the answer is definitely served from cache.
  EXPECT_EQ(E1->engine().run("points-to Main.main/0::x").items().size(), 2u);
  EXPECT_GE(E1->engine().cacheStats().Insertions, 1u);

  // Publish the one-object snapshot under the *same* query key.
  Reg.publish(snapOneObject(), "b");
  auto E2 = Reg.pin();
  serve::QueryResult R2 = E2->engine().run("points-to Main.main/0::x");
  ASSERT_TRUE(R2.Ok) << R2.Error;
  // The audit: epoch 2 must answer from its own snapshot, not epoch 1's
  // cache entry for the identical key.
  EXPECT_EQ(R2.items().size(), 1u);
  // And the retired epoch still answers consistently for readers that
  // pinned it before the swap.
  EXPECT_EQ(E1->engine().run("points-to Main.main/0::x").items().size(), 2u);
}
