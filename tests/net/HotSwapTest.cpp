//===-- tests/net/HotSwapTest.cpp --------------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Hot swap under live traffic, the tentpole invariant: N client threads
// hammer a loopback server while M swaps alternate between two published
// snapshots. Every single response must identify one of the two
// snapshots by digest AND carry the answer *that snapshot* gives for the
// query — a digest/answer mismatch is a torn response. Afterward the
// retired-snapshot count must drain to zero. This suite is the TSan
// leg's main course (engine-per-epoch, pin/publish, the swap thread and
// the event loop all overlap here).
//
//===----------------------------------------------------------------------===//

#include "net/SnapshotServer.h"

#include "../TestUtil.h"
#include "net/Client.h"
#include "serve/Snapshot.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace mahjong;
using namespace mahjong::net;
using namespace mahjong::test;

namespace {

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

std::string writeSnapshotFile(const serve::SnapshotData &D,
                              const std::string &Name) {
  std::string Path = testing::TempDir() + "/" + Name;
  std::ofstream Out(Path, std::ios::binary);
  Out << serve::encodeSnapshot(D);
  return Path;
}

} // namespace

TEST(HotSwap, ConcurrentTrafficSeesNoTornResponses) {
  auto DataA = snapTwoObjects();
  auto DataB = snapOneObject();
  const uint64_t DigestA = serve::snapshotDigest(*DataA);
  const uint64_t DigestB = serve::snapshotDigest(*DataB);
  ASSERT_NE(DigestA, DigestB);
  std::string PathA = writeSnapshotFile(*DataA, "hotswap_a.mjsnap");
  std::string PathB = writeSnapshotFile(*DataB, "hotswap_b.mjsnap");

  // The oracle: what each snapshot answers for the probe query. A torn
  // response would pair one snapshot's digest with the other's answer.
  const std::string Probe = "points-to Main.main/0::x";
  std::map<uint64_t, std::string> ExpectByDigest;
  {
    serve::QueryEngine EA(DataA), EB(DataB);
    ExpectByDigest[DigestA] = EA.run(Probe).toString();
    ExpectByDigest[DigestB] = EB.run(Probe).toString();
    ASSERT_NE(ExpectByDigest[DigestA], ExpectByDigest[DigestB]);
  }

  SnapshotRegistry Registry(DataA, PathA);
  SnapshotServer Server(Registry, {});
  std::string StartErr;
  ASSERT_TRUE(Server.start(StartErr)) << StartErr;

  constexpr unsigned NumClients = 4;
  constexpr unsigned NumSwaps = 6;
  std::atomic<bool> StopClients{false};
  std::atomic<uint64_t> Answered{0}, Torn{0}, TransportErrors{0};
  std::atomic<uint32_t> MaxEpochSeen{0};

  std::vector<std::thread> Clients;
  for (unsigned T = 0; T < NumClients; ++T) {
    Clients.emplace_back([&] {
      Client C;
      std::string Err;
      if (!C.connect("127.0.0.1", Server.port(), Err)) {
        TransportErrors.fetch_add(1);
        return;
      }
      uint32_t LastEpoch = 0;
      while (!StopClients.load(std::memory_order_relaxed)) {
        Response R;
        if (!C.query(Probe, R, Err)) {
          TransportErrors.fetch_add(1);
          return;
        }
        Answered.fetch_add(1, std::memory_order_relaxed);
        auto It = ExpectByDigest.find(R.Digest);
        // The two invariants, response by response: a known digest, and
        // the answer that digest's snapshot gives.
        if (It == ExpectByDigest.end() || !R.Ok || R.Text != It->second)
          Torn.fetch_add(1, std::memory_order_relaxed);
        // Per-connection epochs never move backward: each query pins
        // the then-current snapshot, and publishes only go forward.
        if (R.Epoch < LastEpoch)
          Torn.fetch_add(1, std::memory_order_relaxed);
        LastEpoch = R.Epoch;
        uint32_t Seen = MaxEpochSeen.load(std::memory_order_relaxed);
        while (R.Epoch > Seen &&
               !MaxEpochSeen.compare_exchange_weak(
                   Seen, R.Epoch, std::memory_order_relaxed))
          ;
      }
    });
  }

  // The swapper drives M swaps through the same public surface the
  // clients use (its own connection), alternating the two snapshots.
  std::thread Swapper([&] {
    Client C;
    std::string Err;
    ASSERT_TRUE(C.connect("127.0.0.1", Server.port(), Err)) << Err;
    for (unsigned I = 0; I < NumSwaps; ++I) {
      Response R;
      ASSERT_TRUE(C.swap(I % 2 ? PathA : PathB, R, Err)) << Err;
      EXPECT_TRUE(R.Ok) << R.Text;
      EXPECT_EQ(R.Digest, I % 2 ? DigestA : DigestB);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  Swapper.join();
  // One post-swap probe from this thread pins down the final state
  // deterministically (the client threads race the stop flag).
  {
    Client C;
    std::string Err;
    ASSERT_TRUE(C.connect("127.0.0.1", Server.port(), Err)) << Err;
    Response R;
    ASSERT_TRUE(C.query(Probe, R, Err)) << Err;
    EXPECT_EQ(R.Epoch, NumSwaps + 1);
    EXPECT_EQ(R.Digest, (NumSwaps - 1) % 2 ? DigestA : DigestB);
    EXPECT_EQ(R.Text, ExpectByDigest[R.Digest]);
  }
  StopClients.store(true);
  for (std::thread &T : Clients)
    T.join();
  Server.stop();

  EXPECT_EQ(Torn.load(), 0u);
  EXPECT_EQ(TransportErrors.load(), 0u);
  EXPECT_GT(Answered.load(), 0u);
  EXPECT_EQ(Registry.swapCount(), NumSwaps);
  EXPECT_GE(MaxEpochSeen.load(), 2u)
      << "traffic should have seen at least one swap land";

  // Drain: with the server stopped and every client gone, no pin is
  // left alive — all retired epochs must have been reclaimed.
  EXPECT_EQ(Registry.retiredAlive(), 0u);
  // And the survivor is the last snapshot published.
  EXPECT_EQ(Registry.pin()->digest(),
            (NumSwaps - 1) % 2 ? DigestA : DigestB);
}

TEST(HotSwap, RegistryLevelPublishRaceStaysConsistent) {
  // The same invariant without sockets: raw pin()/publish() overlap, so
  // TSan watches the registry's atomics in isolation too.
  auto DataA = snapTwoObjects();
  auto DataB = snapOneObject();
  const uint64_t DigestA = serve::snapshotDigest(*DataA);
  const uint64_t DigestB = serve::snapshotDigest(*DataB);

  SnapshotRegistry Registry(DataA, "<memory>");
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Torn{0};

  std::vector<std::thread> Readers;
  for (unsigned T = 0; T < 4; ++T) {
    Readers.emplace_back([&] {
      while (!Stop.load(std::memory_order_relaxed)) {
        auto Pin = Registry.pin();
        serve::QueryResult R =
            Pin->engine().run("points-to Main.main/0::x");
        size_t Expect = Pin->digest() == DigestA  ? 2u
                        : Pin->digest() == DigestB ? 1u
                                                   : 0u;
        if (!R.Ok || R.Items.size() != Expect)
          Torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (unsigned I = 0; I < 20; ++I) {
    Registry.publish(I % 2 ? DataA : DataB, "<memory>");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Stop.store(true);
  for (std::thread &T : Readers)
    T.join();

  EXPECT_EQ(Torn.load(), 0u);
  EXPECT_EQ(Registry.swapCount(), 20u);
  EXPECT_EQ(Registry.retiredAlive(), 0u);
}
