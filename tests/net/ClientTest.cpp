//===-- tests/net/ClientTest.cpp ---------------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// net::Client against a peer that accepts the connection and never
// answers: every read is bounded by the receive timeout, so the call
// fails cleanly and closes the connection instead of blocking forever.
//
//===----------------------------------------------------------------------===//

#include "net/Client.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>

using namespace mahjong;
using namespace mahjong::net;

namespace {

/// A loopback listener on an ephemeral port that never writes a byte.
struct SilentServer {
  int Listen = -1;
  int Accepted = -1;
  uint16_t Port = 0;

  SilentServer() {
    Listen = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t Len = sizeof(Addr);
    if (Listen < 0 ||
        bind(Listen, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ||
        listen(Listen, 4) ||
        getsockname(Listen, reinterpret_cast<sockaddr *>(&Addr), &Len))
      return;
    Port = ntohs(Addr.sin_port);
  }
  ~SilentServer() {
    if (Accepted >= 0)
      ::close(Accepted);
    if (Listen >= 0)
      ::close(Listen);
  }
};

} // namespace

TEST(NetClient, SilentServerFailsWithinTheRecvTimeout) {
  SilentServer S;
  ASSERT_NE(S.Port, 0) << "cannot listen on loopback";
  Client C;
  std::string Err;
  ASSERT_TRUE(C.connect("127.0.0.1", S.Port, Err)) << Err;
  S.Accepted = accept(S.Listen, nullptr, nullptr);
  ASSERT_GE(S.Accepted, 0);
  C.setRecvTimeout(std::chrono::milliseconds(200));

  Response R;
  auto Start = std::chrono::steady_clock::now();
  EXPECT_FALSE(C.query("points-to Main.main/0::x", R, Err));
  auto Waited = std::chrono::steady_clock::now() - Start;
  EXPECT_NE(Err.find("timed out waiting for the server"), std::string::npos)
      << Err;
  EXPECT_FALSE(C.connected()) << "a timed-out connection is closed";
  EXPECT_GE(Waited, std::chrono::milliseconds(150));
  EXPECT_LT(Waited, std::chrono::seconds(10));

  // The closed client fails fast instead of reading a stale stream.
  EXPECT_FALSE(C.ping(R, Err));
  EXPECT_EQ(Err, "not connected");
}

TEST(NetClient, DefaultRecvTimeoutLeavesRoomForALargeSwap) {
  EXPECT_GE(Client::DefaultRecvTimeout, std::chrono::seconds(60));
}
