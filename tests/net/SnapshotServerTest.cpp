//===-- tests/net/SnapshotServerTest.cpp -------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The socket server end to end over loopback: binary round trips, line
// mode (raw text and JSON, with garbage surviving the connection),
// hostile framing answered with an error and a disconnect — never a
// crash — pipelined half-close drains, the swap verb and its answer's
// hand-off back to the event loop, and graceful stop. Every connection
// here is a real socket.
//
//===----------------------------------------------------------------------===//

#include "net/SnapshotServer.h"

#include "../TestUtil.h"
#include "net/Client.h"
#include "serve/Snapshot.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

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
      return;
    }
    // A response that never comes fails the test instead of hanging it.
    timeval Timeout{30, 0};
    setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
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

  /// Closes with a reset rather than a FIN (SO_LINGER 0): the server
  /// sees an error, not a half-close it would drain.
  void reset() {
    linger L{1, 0};
    setsockopt(Fd, SOL_SOCKET, SO_LINGER, &L, sizeof(L));
    ::close(Fd);
    Fd = -1;
  }

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
    return Buf.empty() && !TimedOut;
  }

private:
  bool fill() {
    char Tmp[4096];
    ssize_t N = recv(Fd, Tmp, sizeof(Tmp), 0);
    if (N <= 0) {
      TimedOut = N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      return false;
    }
    Buf.append(Tmp, static_cast<size_t>(N));
    return true;
  }

  int Fd = -1;
  std::string Buf;
  bool TimedOut = false; ///< the last read hit the receive timeout
};

/// Polls \p Cond every millisecond for up to ten seconds.
template <typename Fn> bool eventually(Fn Cond) {
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!Cond()) {
    if (std::chrono::steady_clock::now() >= Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Writes \p Bytes into the FIFO at \p Path once a reader has it open,
/// then closes it (the reader sees EOF). Gives up after \p Seconds
/// without a reader.
bool feedFifo(const std::string &Path, std::string_view Bytes,
              double Seconds) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::duration<double>(Seconds));
  int Fd;
  // A non-blocking writer open fails with ENXIO until a reader exists.
  while ((Fd = ::open(Path.c_str(), O_WRONLY | O_NONBLOCK)) < 0) {
    if (errno != ENXIO || std::chrono::steady_clock::now() >= Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  fcntl(Fd, F_SETFL, 0);
  size_t Done = 0;
  while (Done < Bytes.size()) {
    ssize_t N = ::write(Fd, Bytes.data() + Done, Bytes.size() - Done);
    if (N <= 0)
      break;
    Done += static_cast<size_t>(N);
  }
  ::close(Fd);
  return Done == Bytes.size();
}

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
  // be answered, in order, before the server closes its side. Two
  // distinguishable queries alternate, so an answer out of place shows.
  std::string Batch;
  for (int I = 0; I < 32; ++I)
    appendFrame(Batch, MsgType::Query,
                I % 2 ? "alias Main.main/0::x Main.main/0::x"
                      : "points-to Main.main/0::x");
  C.sendAll(Batch);
  C.shutdownWrite();
  for (int I = 0; I < 32; ++I) {
    Frame F = C.readFrame();
    EXPECT_EQ(F.Type, MsgType::RespOk) << "response " << I;
    Response R;
    ASSERT_TRUE(decodeResponsePayload(F.Payload, true, R));
    if (I % 2)
      EXPECT_EQ(R.Text, "true") << "response " << I;
    else
      EXPECT_NE(R.Text.find(','), std::string::npos) << "response " << I;
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

TEST(SnapshotServer, PipelinedSwapAnswersInOrder) {
  // query; swap; query in one send. The swap decodes on the admin thread
  // and its answer comes back through the event loop while the queue
  // behind it waits: three answers, in request order, the first from the
  // old snapshot and the last from the new one.
  auto NewData = snapOneObject();
  std::string Path =
      writeSnapshotFile(*NewData, "server_pipelined_swap.mjsnap");

  LiveServer S;
  ASSERT_TRUE(S.Started);
  uint64_t OldDigest = S.Registry.pin()->digest();
  RawConn C(S.Server.port());
  ASSERT_TRUE(C.ok());

  std::string Batch;
  appendFrame(Batch, MsgType::Query, "points-to Main.main/0::x");
  appendFrame(Batch, MsgType::Swap, Path);
  appendFrame(Batch, MsgType::Query, "points-to Main.main/0::x");
  C.sendAll(Batch);

  Response R[3];
  for (int I = 0; I < 3; ++I) {
    Frame F = C.readFrame();
    EXPECT_EQ(F.Type, MsgType::RespOk) << "response " << I;
    ASSERT_TRUE(decodeResponsePayload(F.Payload, true, R[I]));
  }
  EXPECT_EQ(R[0].Epoch, 1u);
  EXPECT_EQ(R[0].Digest, OldDigest);
  EXPECT_NE(R[0].Text.find(','), std::string::npos) << "two objects";
  EXPECT_EQ(R[1].Epoch, 2u);
  EXPECT_NE(R[1].Text.find("swapped to epoch 2"), std::string::npos)
      << R[1].Text;
  EXPECT_EQ(R[2].Epoch, 2u);
  EXPECT_EQ(R[2].Digest, serve::snapshotDigest(*NewData));
  EXPECT_EQ(R[2].Text.find(','), std::string::npos) << "one object";
}

TEST(SnapshotServer, SwapRequesterClosingEarlyIsHarmless) {
  // The swap reads its snapshot from a FIFO, so the admin thread cannot
  // finish it until the test feeds the FIFO. The requester is reset and
  // closed before that, so the loop must drop the swap's answer; the
  // swap still publishes, other connections keep being answered, and
  // stop() does not wait on the dropped answer.
  auto NewData = snapOneObject();
  std::string Hold = testing::TempDir() + "/server_swap_hold.fifo";
  ::unlink(Hold.c_str());
  ASSERT_EQ(::mkfifo(Hold.c_str(), 0600), 0) << std::strerror(errno);
  std::string Bytes = serve::encodeSnapshot(*NewData);

  ServerConfig Cfg;
  Cfg.DrainSeconds = 60; // a stop that waits on the drop would show
  LiveServer S(Cfg);
  ASSERT_TRUE(S.Started);
  // Feeds the FIFO on every exit path, so a failed assertion cannot
  // leave stop() joining an admin thread blocked on it.
  struct Feeder {
    const std::string &Path, &Bytes;
    bool Fed = false;
    ~Feeder() {
      if (!Fed)
        feedFifo(Path, Bytes, 0.5);
    }
  } Feed{Hold, Bytes};
  obs::MetricsRegistry &M = S.Server.metrics();

  Client Other;
  std::string Err;
  ASSERT_TRUE(Other.connect("127.0.0.1", S.Server.port(), Err)) << Err;

  {
    RawConn Requester(S.Server.port());
    ASSERT_TRUE(Requester.ok());
    std::string Req;
    appendFrame(Req, MsgType::Swap, Hold);
    Requester.sendAll(Req);
    ASSERT_TRUE(eventually(
        [&] { return M.counter("net.frames_total").value() == 1; }));
    Requester.reset();
  }
  ASSERT_TRUE(eventually(
      [&] { return M.counter("net.closed_total").value() == 1; }))
      << "the requester's connection closes while its swap is pending";

  // The admin thread is blocked on the FIFO; the loop is not.
  Response R;
  ASSERT_TRUE(Other.query("points-to Main.main/0::x", R, Err)) << Err;
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Epoch, 1u);

  ASSERT_TRUE(feedFifo(Hold, Bytes, 10));
  Feed.Fed = true;
  ASSERT_TRUE(eventually([&] { return S.Registry.swapCount() == 1; }));
  ASSERT_TRUE(Other.query("points-to Main.main/0::x", R, Err)) << Err;
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.Epoch, 2u);
  EXPECT_EQ(R.Digest, serve::snapshotDigest(*NewData));
  EXPECT_EQ(M.counter("net.swap_failures_total").value(), 0u);

  auto T0 = std::chrono::steady_clock::now();
  S.Server.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - T0, std::chrono::seconds(30));
  EXPECT_FALSE(S.Server.running());
  ::unlink(Hold.c_str());
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
