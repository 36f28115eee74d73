//===-- tests/net/TransportEquivalenceTest.cpp -------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The traffic driver's two transports run one request path: the same
// spec and seed, replayed in process (loopback) and over a live
// SnapshotServer (socket), must get the same (Ok, Text, Digest) for every
// query, the same totals, and a report with the same JSON keys.
//
//===----------------------------------------------------------------------===//

#include "net/TrafficDriver.h"

#include "../TestUtil.h"
#include "net/SnapshotServer.h"

#include <gtest/gtest.h>

#include <set>

using namespace mahjong;
using namespace mahjong::net;
using namespace mahjong::test;

namespace {

std::shared_ptr<const serve::SnapshotData> fixtureSnapshot() {
  Analyzed A = analyze(R"(
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
        y = c.m(a);
      }
    }
  )");
  return std::make_shared<serve::SnapshotData>(serve::buildSnapshot(*A.R));
}

/// Every object key of a flat-or-nested JSON text, as a set.
std::set<std::string> jsonKeys(const std::string &Json) {
  std::set<std::string> Keys;
  for (size_t Pos = Json.find('"'); Pos != std::string::npos;
       Pos = Json.find('"', Pos + 1)) {
    size_t End = Json.find('"', Pos + 1);
    if (End == std::string::npos)
      break;
    if (Json.compare(End + 1, 1, ":") == 0)
      Keys.insert(Json.substr(Pos + 1, End - Pos - 1));
    Pos = End;
  }
  return Keys;
}

} // namespace

TEST(TransportEquivalence, LoopbackAndSocketAnswerIdentically) {
  auto D = fixtureSnapshot();
  SnapshotRegistry ServerRegistry(D, "<memory>");
  SnapshotServer Server(ServerRegistry, ServerConfig{});
  std::string Err;
  ASSERT_TRUE(Server.start(Err)) << Err;
  SnapshotRegistry LocalRegistry(D, "<memory>");
  LoopbackTransport Loopback(LocalRegistry);
  SocketTransport Socket("127.0.0.1", Server.port());

  serve::QueryWorkload W;
  W.Clients = 3;
  W.QueriesPerClient = 200;
  W.Seed = 11;
  W.ZipfS = 1.1;

  // Query by query: each client's generated stream, plus rejected
  // queries, through both transports.
  for (unsigned C = 0; C < W.Clients; ++C) {
    std::unique_ptr<Channel> L = Loopback.open(Err);
    std::unique_ptr<Channel> S = Socket.open(Err);
    ASSERT_TRUE(L && S) << Err;
    serve::QueryGenerator Gen(*D, W, C);
    std::vector<std::string> Texts = {"not a query", "points-to No.such/0::v"};
    for (uint64_t I = 0; I < W.QueriesPerClient; ++I)
      Texts.push_back(Gen.next());
    for (const std::string &Text : Texts) {
      Response RL, RS;
      ASSERT_TRUE(L->roundTrip(Text, RL, Err)) << Err;
      ASSERT_TRUE(S->roundTrip(Text, RS, Err)) << Err;
      EXPECT_EQ(RL.Ok, RS.Ok) << Text;
      EXPECT_EQ(RL.Text, RS.Text) << Text;
      EXPECT_EQ(RL.Digest, RS.Digest) << Text;
    }
  }

  // Whole replays: equal totals, one digest, and one report shape.
  TrafficReport RL = runTraffic(*D, W, Loopback);
  TrafficReport RS = runTraffic(*D, W, Socket);
  EXPECT_EQ(RL.Queries, W.Clients * W.QueriesPerClient);
  EXPECT_EQ(RL.Queries, RS.Queries);
  EXPECT_EQ(RL.Failed, RS.Failed);
  EXPECT_EQ(RL.TransportErrors, 0u);
  EXPECT_EQ(RS.TransportErrors, 0u);
  EXPECT_EQ(RL.DigestsSeen, RS.DigestsSeen);
  EXPECT_EQ(jsonKeys(RL.toJson()), jsonKeys(RS.toJson()));
  Server.stop();
}
