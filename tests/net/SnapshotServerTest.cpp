//===-- tests/net/SnapshotServerTest.cpp -------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The socket server end to end over loopback: binary round trips, line
// mode (raw text and JSON, with garbage surviving the connection),
// hostile framing answered with an error and a disconnect — never a
// crash — pipelined half-close drains, the swap verb, worker-pool mode
// ordering, and graceful stop. Every connection here is a real socket.
//
//===----------------------------------------------------------------------===//

#include "net/SnapshotServer.h"

#include "../TestUtil.h"
#include "net/Client.h"
#include "serve/Snapshot.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <string>

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

/// A raw loopback socket for driving the wire formats by hand.
class RawConn {
public:
  explicit RawConn(uint16_t Port) {
    Fd = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~RawConn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  bool ok() const { return Fd >= 0; }

  void sendAll(std::string_view Bytes) {
    size_t Sent = 0;
    while (Sent < Bytes.size()) {
      ssize_t N = send(Fd, Bytes.data() + Sent, Bytes.size() - Sent,
                       MSG_NOSIGNAL);
      ASSERT_GT(N, 0);
      Sent += static_cast<size_t>(N);
    }
  }

  void shutdownWrite() { shutdown(Fd, SHUT_WR); }

  /// Reads one '\n'-terminated line (newline stripped); fails the test
  /// on EOF.
  std::string readLine() {
    while (true) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string Line = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return Line;
      }
      if (!fill()) {
        ADD_FAILURE() << "EOF while waiting for a line";
        return {};
      }
    }
  }

  /// Decodes one binary frame; fails the test on EOF or corruption.
  Frame readFrame() {
    while (true) {
      Frame F;
      size_t Consumed = 0;
      std::string Err;
      DecodeStatus S = decodeFrame(Buf, Consumed, F, Err);
      if (S == DecodeStatus::Ok) {
        Buf.erase(0, Consumed);
        return F;
      }
      EXPECT_NE(S, DecodeStatus::Corrupt) << Err;
      if (!fill()) {
        ADD_FAILURE() << "EOF while waiting for a frame";
        return F;
      }
    }
  }

  /// True once the peer closed and everything buffered is consumed.
  bool atEof() {
    while (fill())
      ;
    return Buf.empty();
  }

private:
  bool fill() {
    char Tmp[4096];
    ssize_t N = recv(Fd, Tmp, sizeof(Tmp), 0);
    if (N <= 0)
      return false;
    Buf.append(Tmp, static_cast<size_t>(N));
    return true;
  }

  int Fd = -1;
  std::string Buf;
};

/// Registry + started server on an ephemeral port.
struct LiveServer {
  explicit LiveServer(ServerConfig Cfg = {})
      : Registry(snapTwoObjects(), "<memory>"),
        Server(Registry, std::move(Cfg)) {
    std::string Err;
    Started = Server.start(Err);
    EXPECT_TRUE(Started) << Err;
  }
  SnapshotRegistry Registry;
  SnapshotServer Server;
  bool Started = false;
};

} // namespace

TEST(SnapshotServer, BinaryRoundTripMatchesTheEngine) {
  LiveServer S;
  ASSERT_TRUE(S.Started);
  Client C;
  std::string Err;
  ASSERT_TRUE(C.connect("127.0.0.1", S.Server.port(), Err)) << Err;

  Response Pong;
  ASSERT_TRUE(C.ping(Pong, Err)) << Err;
  EXPECT_TRUE(Pong.Ok);
  EXPECT_EQ(Pong.Epoch, 1u);

  auto Pin = S.Registry.pin();
  Response R;
  ASSERT_TRUE(C.query("points-to Main.main/0::x", R, Err)) << Err;
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Epoch, 1u);
  EXPECT_EQ(R.Digest, Pin->digest());
  EXPECT_EQ(R.Text, Pin->engine().run("points-to Main.main/0::x").toString());

  // A query the engine rejects comes back as RespError with the engine's
  // diagnostic — still a well-formed, digest-stamped response.
  ASSERT_TRUE(C.query("points-to No.such/0::v", R, Err)) << Err;
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Text.find("unknown"), std::string::npos);
  EXPECT_EQ(R.Digest, Pin->digest());
}

TEST(SnapshotServer, StatsVerbExposesEngineAndNetMetrics) {
  LiveServer S;
  ASSERT_TRUE(S.Started);
  Client C;
  std::string Err;
  ASSERT_TRUE(C.connect("127.0.0.1", S.Server.port(), Err)) << Err;
  Response Warm;
  ASSERT_TRUE(C.query("points-to Main.main/0::x", Warm, Err));
  Response R;
  ASSERT_TRUE(C.query("stats", R, Err)) << Err;
  ASSERT_TRUE(R.Ok) << R.Text;
  // Engine-side exposition and the net tier in one answer.
  EXPECT_NE(R.Text.find("mahjong_serve_cache_hits"), std::string::npos);
  EXPECT_NE(R.Text.find("mahjong_net_queries_total"), std::string::npos);
  EXPECT_NE(R.Text.find("mahjong_net_accepted_total"), std::string::npos);
  EXPECT_NE(R.Text.find("mahjong_net_current_epoch"), std::string::npos);
}

TEST(SnapshotServer, LineModeAnswersRawTextAndJson) {
  LiveServer S;
  ASSERT_TRUE(S.Started);
  RawConn C(S.Server.port());
  ASSERT_TRUE(C.ok());

  C.sendAll("points-to Main.main/0::x\n");
  Response R;
  std::string Err;
  ASSERT_TRUE(parseLineResponse(C.readLine(), R, Err)) << Err;
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Epoch, 1u);

  C.sendAll("{\"q\": \"alias Main.main/0::x Main.main/0::x\"}\n");
  ASSERT_TRUE(parseLineResponse(C.readLine(), R, Err)) << Err;
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Text, "true");
}

TEST(SnapshotServer, GarbageJsonGetsAnErrorLineAndTheConnectionSurvives) {
  LiveServer S;
  ASSERT_TRUE(S.Started);
  RawConn C(S.Server.port());
  ASSERT_TRUE(C.ok());

  C.sendAll("{\"q\": unterminated\n");
  Response R;
  std::string Err;
  ASSERT_TRUE(parseLineResponse(C.readLine(), R, Err)) << Err;
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Text.find("JSON"), std::string::npos);

  // The session is still good: a valid query right after is answered.
  C.sendAll("points-to Main.main/0::x\n");
  ASSERT_TRUE(parseLineResponse(C.readLine(), R, Err)) << Err;
  EXPECT_TRUE(R.Ok);
}

TEST(SnapshotServer, CorruptBinaryFrameAnswersErrorThenDisconnects) {
  LiveServer S;
  ASSERT_TRUE(S.Started);
  RawConn C(S.Server.port());
  ASSERT_TRUE(C.ok());

  // Magic byte locks binary mode; type 0x7f is not a thing.
  std::string Bad;
  Bad.push_back(static_cast<char>(FrameMagic));
  Bad.push_back(0x7f);
  Bad.append(4, '\0');
  C.sendAll(Bad);
  Frame F = C.readFrame();
  EXPECT_EQ(F.Type, MsgType::RespError);
  Response R;
  ASSERT_TRUE(decodeResponsePayload(F.Payload, false, R));
  EXPECT_FALSE(R.Text.empty());
  EXPECT_TRUE(C.atEof()) << "a corrupt stream must end the connection";
}

TEST(SnapshotServer, HostileLengthPrefixIsBoundedBeforeAllocation) {
  LiveServer S;
  ASSERT_TRUE(S.Started);
  RawConn C(S.Server.port());
  ASSERT_TRUE(C.ok());

  // Claims a 4 GiB payload; the server must refuse from the header alone
  // (under ASan this is also an allocation test).
  std::string Bad;
  Bad.push_back(static_cast<char>(FrameMagic));
  Bad.push_back(static_cast<char>(MsgType::Query));
  Bad.append(4, static_cast<char>(0xFF));
  C.sendAll(Bad);
  Frame F = C.readFrame();
  EXPECT_EQ(F.Type, MsgType::RespError);
  EXPECT_TRUE(C.atEof());
}

TEST(SnapshotServer, PipelinedHalfCloseDrainsEveryRequest) {
  LiveServer S;
  ASSERT_TRUE(S.Started);
  RawConn C(S.Server.port());
  ASSERT_TRUE(C.ok());

  // Fire 32 queries, close our write side, then collect: every one must
  // be answered, in order, before the server closes its side.
  std::string Batch;
  for (int I = 0; I < 32; ++I)
    appendFrame(Batch, MsgType::Query, "points-to Main.main/0::x");
  C.sendAll(Batch);
  C.shutdownWrite();
  for (int I = 0; I < 32; ++I) {
    Frame F = C.readFrame();
    EXPECT_EQ(F.Type, MsgType::RespOk) << "response " << I;
  }
  EXPECT_TRUE(C.atEof());
}

TEST(SnapshotServer, HalfCloseDrainsPipeliningBeyondTheInflightBound) {
  // The backlog past MaxInflight parks in the server's read buffer;
  // after a half-close it must still be parsed and answered — draining
  // stops socket reads, not the parsing of what already arrived.
  ServerConfig Cfg;
  Cfg.MaxInflight = 8;
  LiveServer S(Cfg);
  ASSERT_TRUE(S.Started);
  RawConn C(S.Server.port());
  ASSERT_TRUE(C.ok());

  std::string Batch;
  for (int I = 0; I < 100; ++I)
    appendFrame(Batch, MsgType::Query, "points-to Main.main/0::x");
  // Trailing truncated header: the peer dies mid-frame. It can never
  // complete, so the drain must discard it rather than hang the close.
  Batch.push_back(static_cast<char>(FrameMagic));
  Batch.push_back(static_cast<char>(MsgType::Query));
  C.sendAll(Batch);
  C.shutdownWrite();
  for (int I = 0; I < 100; ++I) {
    Frame F = C.readFrame();
    EXPECT_EQ(F.Type, MsgType::RespOk) << "response " << I;
  }
  EXPECT_TRUE(C.atEof());
}

TEST(SnapshotServer, LineErrorsAnswerInRequestOrder) {
  // Clients correlate responses by position; a malformed line's error
  // must answer in its queue slot, not jump ahead of earlier requests.
  LiveServer S;
  ASSERT_TRUE(S.Started);
  RawConn C(S.Server.port());
  ASSERT_TRUE(C.ok());

  C.sendAll("points-to Main.main/0::x\n"
            "{\"q\": broken\n"
            "points-to Main.main/0::x\n");
  Response R;
  std::string Err;
  ASSERT_TRUE(parseLineResponse(C.readLine(), R, Err)) << Err;
  EXPECT_TRUE(R.Ok) << "first valid query answers first";
  ASSERT_TRUE(parseLineResponse(C.readLine(), R, Err)) << Err;
  EXPECT_FALSE(R.Ok) << "the parse error answers second, in its slot";
  EXPECT_NE(R.Text.find("JSON"), std::string::npos);
  ASSERT_TRUE(parseLineResponse(C.readLine(), R, Err)) << Err;
  EXPECT_TRUE(R.Ok) << "the session continues past the error";
}

TEST(SnapshotServer, WorkerPoolModePreservesPerConnectionOrder) {
  ServerConfig Cfg;
  Cfg.Workers = 2;
  LiveServer S(Cfg);
  ASSERT_TRUE(S.Started);
  RawConn C(S.Server.port());
  ASSERT_TRUE(C.ok());

  // Alternate two distinguishable queries; answers must come back in
  // exactly the request order even though a pool drains the queue.
  std::string Batch;
  for (int I = 0; I < 20; ++I)
    appendFrame(Batch, MsgType::Query,
                I % 2 ? "alias Main.main/0::x Main.main/0::x"
                      : "points-to Main.main/0::x");
  C.sendAll(Batch);
  C.shutdownWrite();
  for (int I = 0; I < 20; ++I) {
    Frame F = C.readFrame();
    Response R;
    ASSERT_TRUE(decodeResponsePayload(F.Payload, true, R));
    if (I % 2)
      EXPECT_EQ(R.Text, "true") << "response " << I;
    else
      EXPECT_NE(R.Text.find(','), std::string::npos) << "response " << I;
  }
  EXPECT_TRUE(C.atEof());
}

TEST(SnapshotServer, SwapVerbPublishesAndStampsTheNewEpoch) {
  auto NewData = snapOneObject();
  std::string Path = writeSnapshotFile(*NewData, "server_swap.mjsnap");

  LiveServer S;
  ASSERT_TRUE(S.Started);
  Client C;
  std::string Err;
  ASSERT_TRUE(C.connect("127.0.0.1", S.Server.port(), Err)) << Err;

  uint64_t OldDigest = S.Registry.pin()->digest();
  Response R;
  ASSERT_TRUE(C.swap(Path, R, Err)) << Err;
  ASSERT_TRUE(R.Ok) << R.Text;
  EXPECT_EQ(R.Epoch, 2u);
  EXPECT_EQ(R.Digest, serve::snapshotDigest(*NewData));

  // Queries after the swap answer from the new snapshot.
  ASSERT_TRUE(C.query("points-to Main.main/0::x", R, Err)) << Err;
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Epoch, 2u);
  EXPECT_NE(R.Digest, OldDigest);

  // A failed swap reports the loader's diagnostic and keeps epoch 2.
  ASSERT_TRUE(C.swap("/nonexistent/y.mjsnap", R, Err)) << Err;
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Epoch, 2u);
  EXPECT_EQ(S.Registry.swapCount(), 1u);
}

TEST(SnapshotServer, GracefulStopStopsAcceptingAndDrains) {
  LiveServer S;
  ASSERT_TRUE(S.Started);
  uint16_t Port = S.Server.port();
  {
    Client C;
    std::string Err;
    ASSERT_TRUE(C.connect("127.0.0.1", Port, Err)) << Err;
    Response R;
    ASSERT_TRUE(C.query("points-to Main.main/0::x", R, Err)) << Err;
    EXPECT_TRUE(R.Ok);
  }
  S.Server.stop();
  EXPECT_FALSE(S.Server.running());
  Client C2;
  std::string Err;
  EXPECT_FALSE(C2.connect("127.0.0.1", Port, Err));
  // Stop is idempotent.
  S.Server.stop();
}

TEST(SnapshotServer, CountersTrackTheSession) {
  LiveServer S;
  ASSERT_TRUE(S.Started);
  {
    Client C;
    std::string Err;
    ASSERT_TRUE(C.connect("127.0.0.1", S.Server.port(), Err)) << Err;
    Response R;
    for (int I = 0; I < 5; ++I)
      ASSERT_TRUE(C.query("points-to Main.main/0::x", R, Err)) << Err;
  }
  S.Server.stop();
  obs::MetricsRegistry &M = S.Server.metrics();
  EXPECT_EQ(M.counter("net.accepted_total").value(), 1u);
  EXPECT_EQ(M.counter("net.queries_total").value(), 5u);
  EXPECT_EQ(M.counter("net.frames_total").value(), 5u);
  EXPECT_GE(M.counter("net.bytes_read_total").value(), 5 * FrameHeaderSize);
  EXPECT_GT(M.counter("net.bytes_written_total").value(), 0u);
  EXPECT_GE(M.histogram("net.request_ns").count(), 5u);
}
