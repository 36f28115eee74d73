//===-- tests/serve/ConcurrentQueryTest.cpp ----------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The concurrent serving contract: >= 8 client threads hammering one
// QueryEngine (and one request executor) must race nowhere — every answer must
// equal the single-threaded answer, under heavy cache contention and a
// capacity small enough to force constant eviction. Run under
// -DMAHJONG_SANITIZE=thread these tests are the TSan proof of the
// lock-free read path.
//
//===----------------------------------------------------------------------===//

#include "net/TrafficDriver.h"
#include "support/Hashing.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace mahjong;
using namespace mahjong::serve;
using namespace mahjong::test;

namespace {

constexpr unsigned NumClients = 8;
constexpr unsigned QueriesPerClient = 2000;

/// A program with enough distinct variables to generate cache churn.
Analyzed contentionFixture() {
  std::string Src = R"(
    class A { method m(p) { return p; } }
    class B extends A { method m(p) { return this; } }
    class Main {
      static method main() {
        a = new A;
        b = new B;
        x = a;
        x = b;
        r = x.m(b);
        c = (B) x;
  )";
  // Widen main with many one-object variables so points-to keys vary.
  for (int I = 0; I < 40; ++I)
    Src += "        v" + std::to_string(I) + " = new A;\n";
  Src += "      }\n    }\n";
  return analyze(Src);
}

/// Every query text the clients draw from, with its single-threaded
/// answer precomputed before any concurrency starts.
struct Corpus {
  std::vector<std::string> Texts;
  std::vector<std::string> Expected;
};

Corpus buildCorpus(const QueryEngine &E) {
  Corpus C;
  const SnapshotData &D = E.data();
  for (uint32_t V = 0; V < D.Vars.size(); ++V)
    C.Texts.push_back("points-to " + D.varKey(V));
  for (uint32_t S = 0; S < D.Sites.size(); ++S)
    C.Texts.push_back("devirt " + std::to_string(S));
  for (uint32_t I = 0; I < D.Casts.size(); ++I)
    C.Texts.push_back("cast-may-fail " + std::to_string(I));
  for (const SnapshotData::Method &M : D.Methods) {
    C.Texts.push_back("callers " + M.Signature);
    C.Texts.push_back("callees " + M.Signature);
  }
  C.Texts.push_back("alias Main.main/0::a Main.main/0::x");
  C.Texts.push_back("not a query at all"); // error path under concurrency
  for (const std::string &T : C.Texts)
    C.Expected.push_back(E.run(T).toString());
  return C;
}

} // namespace

TEST(ConcurrentQuery, EngineAnswersAreRaceFree) {
  Analyzed A = contentionFixture();
  // Tiny cache: eviction and insertion race with lock-free readers.
  QueryEngine E(std::make_shared<SnapshotData>(buildSnapshot(*A.R)),
                /*CacheCapacity=*/32);
  Corpus C = buildCorpus(E);

  std::atomic<uint64_t> Mismatches{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumClients; ++T) {
    Threads.emplace_back([&, T] {
      uint64_t Rng = splitmix64(T + 1);
      for (unsigned I = 0; I < QueriesPerClient; ++I) {
        Rng = splitmix64(Rng);
        size_t Pick = Rng % C.Texts.size();
        if (E.run(C.Texts[Pick]).toString() != C.Expected[Pick])
          Mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Mismatches.load(), 0u);

  QueryCache::Stats S = E.cacheStats();
  EXPECT_GT(S.Hits, 0u);
  EXPECT_GT(S.Evictions, 0u) << "capacity 32 should churn";
}

TEST(ConcurrentQuery, ServerAnswersAreRaceFree) {
  // The serving request path — registry pin, executor dispatch, the
  // shared net.* metrics — raced through the loopback transport, one
  // channel per thread, against the serial answers.
  Analyzed A = contentionFixture();
  auto Data = std::make_shared<const SnapshotData>(buildSnapshot(*A.R));
  Corpus C = buildCorpus(QueryEngine(Data));
  net::SnapshotRegistry Registry(Data, "<memory>");
  net::LoopbackTransport T(Registry);
  const uint64_t Digest = snapshotDigest(*Data);

  std::atomic<uint64_t> Mismatches{0}, Answered{0};
  std::vector<std::thread> Threads;
  for (unsigned Th = 0; Th < NumClients; ++Th) {
    Threads.emplace_back([&, Th] {
      std::string Err;
      std::unique_ptr<net::Channel> Chan = T.open(Err);
      uint64_t Rng = splitmix64(0x5e4 + Th);
      for (unsigned I = 0; Chan && I < QueriesPerClient / 4; ++I) {
        Rng = splitmix64(Rng);
        size_t Pick = Rng % C.Texts.size();
        net::Response R;
        if (!Chan->roundTrip(C.Texts[Pick], R, Err))
          break;
        Answered.fetch_add(1, std::memory_order_relaxed);
        if ((R.Ok ? R.Text : "error: " + R.Text) != C.Expected[Pick] ||
            R.Digest != Digest || R.Epoch != 1)
          Mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Answered.load(), NumClients * (QueriesPerClient / 4));
  EXPECT_EQ(Mismatches.load(), 0u);
}

TEST(ConcurrentQuery, ManyEnginesShareOneSnapshot) {
  // The snapshot itself must tolerate concurrent readers through
  // independent engines (shared_ptr-shared immutable data).
  Analyzed A = contentionFixture();
  auto Shared = std::make_shared<const SnapshotData>(buildSnapshot(*A.R));
  std::vector<std::thread> Threads;
  std::atomic<uint64_t> Failures{0};
  for (unsigned T = 0; T < NumClients; ++T) {
    Threads.emplace_back([&] {
      QueryEngine E(Shared, /*CacheCapacity=*/16);
      for (uint32_t V = 0; V < Shared->Vars.size(); ++V)
        if (!E.run("points-to " + Shared->varKey(V)).Ok)
          Failures.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Failures.load(), 0u);
}
