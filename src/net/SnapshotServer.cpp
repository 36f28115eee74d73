//===-- net/SnapshotServer.cpp - Socket serving tier -------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/SnapshotServer.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

using namespace mahjong;
using namespace mahjong::net;

namespace {

std::string_view trimText(std::string_view S) {
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.front())))
    S.remove_prefix(1);
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.back())))
    S.remove_suffix(1);
  return S;
}

void setNonBlocking(int Fd) {
  int Flags = fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

void appendJsonEscaped(std::string &Out, std::string_view S) {
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      Out += ' ';
    } else {
      Out += C;
    }
  }
}

/// Splits query text into its verb (first token) and key (the rest),
/// for the slow-query log.
void splitVerbKey(std::string_view Text, std::string_view &Verb,
                  std::string_view &Key) {
  Text = trimText(Text);
  size_t Sp = Text.find_first_of(" \t");
  if (Sp == std::string_view::npos) {
    Verb = Text;
    Key = {};
    return;
  }
  Verb = Text.substr(0, Sp);
  Key = trimText(Text.substr(Sp + 1));
}

} // namespace

SnapshotServer::SnapshotServer(SnapshotRegistry &Registry,
                               ServerConfig Config)
    : Registry(Registry), Config(std::move(Config)),
      Exec(Registry, Metrics, this->Config.Recorder),
      Accepted(Metrics.counter("net.accepted_total")),
      Closed(Metrics.counter("net.closed_total")),
      Frames(Metrics.counter("net.frames_total")),
      Lines(Metrics.counter("net.lines_total")),
      ProtocolErrors(Metrics.counter("net.protocol_errors_total")),
      SlowReaderDisconnects(
          Metrics.counter("net.slow_reader_disconnects_total")),
      SlowQueries(Metrics.counter("net.slow_queries_total")),
      Swaps(Metrics.counter("net.swaps_total")),
      SwapFailures(Metrics.counter("net.swap_failures_total")),
      BytesRead(Metrics.counter("net.bytes_read_total")),
      BytesWritten(Metrics.counter("net.bytes_written_total")),
      ActiveConns(Metrics.gauge("net.active_conns")) {}

SnapshotServer::~SnapshotServer() { stop(); }

bool SnapshotServer::start(std::string &Err) {
  if (LoopThread.joinable()) {
    Err = "server already running";
    return false;
  }
  Stopping.store(false, std::memory_order_relaxed);

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Config.Port);
  if (inet_pton(AF_INET, Config.Host.c_str(), &Addr.sin_addr) != 1) {
    Err = "cannot parse listen address '" + Config.Host + "'";
    return false;
  }
  ListenFd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (ListenFd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int One = 1;
  setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  auto Fail = [&](const char *What) {
    Err = std::string(What) + ": " + std::strerror(errno);
    close(ListenFd);
    ListenFd = -1;
    return false;
  };
  if (bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
    return Fail("bind");
  if (listen(ListenFd, SOMAXCONN) != 0)
    return Fail("listen");
  sockaddr_in Bound{};
  socklen_t BoundLen = sizeof(Bound);
  if (getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Bound),
                  &BoundLen) != 0)
    return Fail("getsockname");
  BoundPort = ntohs(Bound.sin_port);
  setNonBlocking(ListenFd);

  int Pipe[2];
  if (pipe2(Pipe, O_NONBLOCK | O_CLOEXEC) != 0)
    return Fail("pipe2");
  WakeRd = Pipe[0];
  WakeWr = Pipe[1];

  if (!Config.SwapFifo.empty()) {
    // O_RDWR keeps the FIFO open-able with no writer attached and spares
    // the loop from the read-side EOF churn between writers.
    FifoFd = open(Config.SwapFifo.c_str(), O_RDWR | O_NONBLOCK | O_CLOEXEC);
    if (FifoFd < 0) {
      Err = "cannot open swap fifo '" + Config.SwapFifo +
            "': " + std::strerror(errno);
      close(ListenFd);
      close(WakeRd);
      close(WakeWr);
      ListenFd = WakeRd = WakeWr = -1;
      return false;
    }
  }

  SwapStop = false;
  SwapThread = std::thread([this] { swapLoop(); });
  LoopThread = std::thread([this] { loop(); });
  return true;
}

void SnapshotServer::stop() {
  if (!LoopThread.joinable())
    return;
  Stopping.store(true, std::memory_order_release);
  wake();
  LoopThread.join();
  // Retire the admin thread (it completes a mid-flight swap before
  // exiting).
  {
    std::lock_guard<std::mutex> Lock(SwapMu);
    SwapStop = true;
  }
  SwapCv.notify_all();
  SwapThread.join();
  for (int *Fd : {&ListenFd, &WakeRd, &WakeWr, &FifoFd}) {
    if (*Fd >= 0)
      close(*Fd);
    *Fd = -1;
  }
  Conns.clear();
  ActiveConns.set(0);
}

void SnapshotServer::wake() {
  char B = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is success.
  [[maybe_unused]] ssize_t N = write(WakeWr, &B, 1);
}

//===----------------------------------------------------------------------===//
// Event loop
//===----------------------------------------------------------------------===//

void SnapshotServer::loop() {
  using Clock = std::chrono::steady_clock;
  Clock::time_point DrainDeadline = Clock::time_point::max();
  bool ListenClosed = false;

  std::vector<pollfd> Fds;
  std::vector<Conn *> Polled;
  std::deque<SwapReply> Replies;

  while (true) {
    bool Stop = Stopping.load(std::memory_order_acquire);
    if (Stop && !ListenClosed) {
      // Stop accepting first; the deadline bounds the rest of the drain.
      close(ListenFd);
      ListenFd = -1;
      ListenClosed = true;
      DrainDeadline = Clock::now() + std::chrono::duration_cast<
                                         Clock::duration>(
                                         std::chrono::duration<double>(
                                             Config.DrainSeconds));
    }

    // Deliver the admin thread's swap answers and unpause the queues
    // behind them. A requester that has gone away simply loses its
    // answer; the swap itself has already published.
    size_t SwapsPending;
    {
      std::lock_guard<std::mutex> Lock(SwapMu);
      Replies.swap(SwapReplies);
      SwapsUnanswered -= Replies.size();
      SwapsPending = SwapsUnanswered;
    }
    for (SwapReply &Rep : Replies) {
      auto It = Conns.find(Rep.ConnId);
      if (It == Conns.end())
        continue;
      respond(It->second, Rep.R);
      It->second.AwaitingSwap = false;
    }
    Replies.clear();

    // Maintenance pass: close the dead, resume paused parsing, drain
    // queues, and decide each connection's poll interest.
    Fds.clear();
    Polled.clear();
    size_t ListenSlot = SIZE_MAX, WakeSlot, FifoSlot = SIZE_MAX;
    if (ListenFd >= 0 && Conns.size() < Config.MaxConns &&
        Clock::now() >= AcceptBackoffUntil) {
      ListenSlot = Fds.size();
      Fds.push_back({ListenFd, POLLIN, 0});
    }
    WakeSlot = Fds.size();
    Fds.push_back({WakeRd, POLLIN, 0});
    if (FifoFd >= 0 && !Stop) {
      FifoSlot = Fds.size();
      Fds.push_back({FifoFd, POLLIN, 0});
    }

    const size_t FirstConnSlot = Fds.size();
    bool AllIdle = true;
    std::vector<uint64_t> ToClose;
    for (auto &[Id, C] : Conns) {
      // A draining connection is done only when nothing parsed, queued,
      // buffered, *or still parked in RdBuf* remains — a half-closed
      // peer's pipelined backlog beyond MaxInflight lives in RdBuf.
      if (C.Dead || (C.Draining && !C.AwaitingSwap && C.Queue.empty() &&
                     C.Outbox.empty() && C.RdBuf.empty())) {
        ToClose.push_back(Id);
        continue;
      }
      // Bytes may be parked in RdBuf from a pass when the queue was
      // full; parse them now that there is room again. Draining only
      // stops socket *reads*, never the parsing of what already arrived.
      if (C.Queue.size() < Config.MaxInflight && !C.RdBuf.empty()) {
        size_t Before = C.RdBuf.size();
        parseBuffered(C);
        // The peer's write side is closed, so a residue that did not
        // shrink is a truncated frame or unterminated line that can
        // never complete; drop it so the drain can finish.
        if (C.Draining && C.RdBuf.size() == Before)
          C.RdBuf.clear();
      }
      drainQueue(C);
      if (C.AwaitingSwap || !C.Queue.empty() || !C.Outbox.empty())
        AllIdle = false;
      short Events = 0;
      if (!C.Draining && !Stop && C.Queue.size() < Config.MaxInflight)
        Events |= POLLIN;
      if (!C.Outbox.empty())
        Events |= POLLOUT;
      // Poll even with no interest bits: POLLERR/POLLHUP still arrive.
      Polled.push_back(&C);
      Fds.push_back({C.Fd, Events, 0});
    }
    for (uint64_t Id : ToClose)
      closeConn(Id);

    if (Stop && ((AllIdle && SwapsPending == 0 && ToClose.empty()) ||
                 Clock::now() >= DrainDeadline)) {
      for (auto &[Id, C] : Conns)
        close(C.Fd);
      Conns.clear();
      ActiveConns.set(0);
      return;
    }

    int Timeout = Stop ? 20 : 500;
    int N = poll(Fds.data(), Fds.size(), Timeout);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return; // unrecoverable poll failure; stop serving
    }

    if (Fds[WakeSlot].revents & POLLIN) {
      char Buf[256];
      while (read(WakeRd, Buf, sizeof(Buf)) > 0)
        ;
    }
    if (ListenSlot != SIZE_MAX && (Fds[ListenSlot].revents & POLLIN))
      acceptReady();
    if (FifoSlot != SIZE_MAX && (Fds[FifoSlot].revents & POLLIN))
      fifoReadable();

    for (size_t I = 0; I < Polled.size(); ++I) {
      const pollfd &P = Fds[FirstConnSlot + I];
      Conn &C = *Polled[I];
      if (P.revents & (POLLERR | POLLNVAL)) {
        C.Dead = true;
        continue;
      }
      if (P.revents & POLLIN)
        readable(C);
      else if (P.revents & POLLHUP) {
        // HUP with nothing left to read: peer is gone for good.
        C.Dead = true;
        continue;
      }
      // Flushing in the same pass keeps the common request/response
      // round trip inside one poll iteration.
      writable(C);
    }
  }
}

void SnapshotServer::acceptReady() {
  while (Conns.size() < Config.MaxConns) {
    int Fd = accept4(ListenFd, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0) {
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM)
        // Resource exhaustion does not consume the pending connection,
        // so the listen fd stays readable and re-polling it would spin.
        // Park the listener briefly; the loop re-arms it after this.
        AcceptBackoffUntil = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(100);
      return; // otherwise EAGAIN or a transient error; poll again
    }
    int One = 1;
    setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    uint64_t Id = NextConnId++;
    Conn &C = Conns[Id];
    C.Fd = Fd;
    C.Id = Id;
    Accepted.inc();
    ActiveConns.set(Conns.size());
  }
}

void SnapshotServer::closeConn(uint64_t Id) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  close(It->second.Fd);
  Conns.erase(It);
  Closed.inc();
  ActiveConns.set(Conns.size());
}

void SnapshotServer::readable(Conn &C) {
  if (C.Draining || C.Dead)
    return;
  char Buf[64 * 1024];
  bool PeerClosed = false;
  while (C.RdBuf.size() < MaxFramePayload + FrameHeaderSize) {
    ssize_t N = recv(C.Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      // The "accepted" stamp for whatever requests parse out of these
      // bytes: the arrival of the *oldest* unparsed byte.
      if (C.RdBuf.empty())
        C.RecvNs = nowNs();
      C.RdBuf.append(Buf, static_cast<size_t>(N));
      BytesRead.inc(static_cast<uint64_t>(N));
      continue;
    }
    if (N == 0) {
      PeerClosed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      break;
    C.Dead = true;
    return;
  }
  parseBuffered(C);
  // Half-close handshake: the peer is done sending, but everything it
  // pipelined still gets answered before we close our side.
  if (PeerClosed)
    C.Draining = true;
  drainQueue(C);
}

void SnapshotServer::parseBuffered(Conn &C) {
  if (C.RdBuf.empty())
    return;
  if (C.Mode == Conn::IoMode::Unknown)
    C.Mode = static_cast<unsigned char>(C.RdBuf[0]) == FrameMagic
                 ? Conn::IoMode::Binary
                 : Conn::IoMode::Line;

  uint64_t Start = nowNs();
  uint64_t Recv = C.RecvNs ? C.RecvNs : Start;
  size_t Pos = 0;
  auto QueueFull = [&] { return C.Queue.size() >= Config.MaxInflight; };
  auto Enqueue = [&](MsgType T, std::string Text, bool ParseError = false) {
    C.Queue.push_back(
        PendingReq{T, std::move(Text), Start, ParseError, NextReqId++, Recv});
  };

  if (C.Mode == Conn::IoMode::Binary) {
    while (!QueueFull()) {
      Frame F;
      size_t Consumed = 0;
      std::string Err;
      DecodeStatus S = decodeFrame(
          std::string_view(C.RdBuf).substr(Pos), Consumed, F, Err);
      if (S == DecodeStatus::NeedMore)
        break;
      if (S == DecodeStatus::Corrupt) {
        C.RdBuf.clear();
        failProtocol(C, Err);
        return;
      }
      Pos += Consumed;
      Frames.inc();
      if (!isRequestType(static_cast<uint8_t>(F.Type))) {
        C.RdBuf.clear();
        failProtocol(C, "response frame type from a client");
        return;
      }
      Enqueue(F.Type, std::move(F.Payload));
    }
  } else {
    while (!QueueFull()) {
      size_t Nl = C.RdBuf.find('\n', Pos);
      if (Nl == std::string::npos) {
        if (C.RdBuf.size() - Pos > MaxLineLength) {
          C.RdBuf.clear();
          failProtocol(C, "request line exceeds the length bound");
          return;
        }
        break;
      }
      std::string_view Line(C.RdBuf.data() + Pos, Nl - Pos);
      Pos = Nl + 1;
      Lines.inc();
      if (trimText(Line).empty())
        continue;
      std::string Text, Err;
      if (!parseLineRequest(Line, Text, Err)) {
        // Garbage JSON gets an error *line*, not a disconnect — this is
        // the debugging surface, and a typo should not cost the session.
        // The error queues like any request so it answers in order.
        ProtocolErrors.inc();
        Enqueue(MsgType::Query, std::move(Err), /*ParseError=*/true);
        continue;
      }
      std::string_view T = trimText(Text);
      if (T.rfind("swap ", 0) == 0)
        Enqueue(MsgType::Swap, std::string(trimText(T.substr(5))));
      else
        Enqueue(MsgType::Query, std::move(Text));
    }
  }
  C.RdBuf.erase(0, Pos);
  if (C.RdBuf.empty())
    C.RecvNs = 0; // next recv restamps the accepted stage
}

//===----------------------------------------------------------------------===//
// Request execution
//===----------------------------------------------------------------------===//

void SnapshotServer::drainQueue(Conn &C) {
  while (!C.AwaitingSwap && !C.Dead && !C.Queue.empty()) {
    PendingReq Req = std::move(C.Queue.front());
    C.Queue.pop_front();
    if (Req.Type == MsgType::Swap) {
      // Swaps decode on the admin thread; the queue stays paused until
      // the loop delivers the answer, so this connection's responses
      // keep arriving in request order.
      C.AwaitingSwap = true;
      queueSwap(std::move(Req.Text), C.Id);
      return;
    }
    // parsed -> executing is pure queueing: the loop's maintenance
    // latency and whatever ran ahead of this request.
    uint64_t ExecStartNs = nowNs();
    Response R;
    if (Req.ParseError)
      // Answered in queue order, but the snapshot never saw it: Ok stays
      // false and there is no digest/epoch stamp.
      R.Text = Req.Text;
    else
      R = Exec.execute(Req.Type, Req.Text, Req.StartNs, ExecStartNs);
    respond(C, R);
    uint64_t RespNs = nowNs();
    if (Config.SlowQueryMicros &&
        RespNs - Req.RecvNs >= Config.SlowQueryMicros * 1000)
      emitSlowQuery(Req, R, ExecStartNs, RespNs);
  }
}

void SnapshotServer::refreshGauges() const { Exec.refreshGauges(); }

void SnapshotServer::emitSlowQuery(const PendingReq &Req, const Response &R,
                                   uint64_t ExecStartNs, uint64_t RespNs) {
  SlowQueries.inc();
  std::string_view Verb, Key;
  if (Req.ParseError) {
    Verb = "parse-error";
  } else if (Req.Type == MsgType::Ping) {
    Verb = "ping";
  } else {
    splitVerbKey(Req.Text, Verb, Key);
  }
  std::string Line = "{\"event\":\"slow_query\",\"id\":";
  Line += std::to_string(Req.Id);
  Line += ",\"verb\":\"";
  appendJsonEscaped(Line, Verb);
  Line += "\",\"key\":\"";
  appendJsonEscaped(Line, Key);
  Line += "\",\"ok\":";
  Line += R.Ok ? "true" : "false";
  Line += ",\"epoch\":";
  Line += std::to_string(R.Epoch);
  Line += ",\"parse_us\":";
  Line += std::to_string((Req.StartNs - Req.RecvNs) / 1000);
  Line += ",\"queue_us\":";
  Line += std::to_string((ExecStartNs - Req.StartNs) / 1000);
  Line += ",\"exec_us\":";
  Line += std::to_string((RespNs - ExecStartNs) / 1000);
  Line += ",\"total_us\":";
  Line += std::to_string((RespNs - Req.RecvNs) / 1000);
  Line += "}\n";
  std::ostream &OS = Config.SlowLog ? *Config.SlowLog : std::cerr;
  OS << Line;
  OS.flush();
}

void SnapshotServer::respond(Conn &C, const Response &R) {
  if (C.Dead)
    return;
  if (C.Mode == Conn::IoMode::Binary) {
    appendFrame(C.Outbox, R.Ok ? MsgType::RespOk : MsgType::RespError,
                encodeResponsePayload(R));
  } else {
    C.Outbox += renderLineResponse(R);
    C.Outbox += '\n';
  }
  if (C.Outbox.size() > Config.MaxOutboxBytes) {
    // A reader this slow would grow server memory without bound; the
    // contract is a clean disconnect, not a swelling buffer.
    C.Dead = true;
    SlowReaderDisconnects.inc();
  }
}

void SnapshotServer::failProtocol(Conn &C, const std::string &Why) {
  ProtocolErrors.inc();
  // The error rides the request queue behind anything already parsed,
  // so it answers in FIFO position rather than jumping ahead of
  // earlier, still-unanswered requests.
  uint64_t Now = nowNs();
  C.Queue.push_back(
      PendingReq{MsgType::Query, Why, Now, true, NextReqId++, Now});
  C.Draining = true; // answer everything parsed, then close
}

void SnapshotServer::writable(Conn &C) {
  if (C.Dead || C.Outbox.empty())
    return;
  size_t Sent = 0;
  while (Sent < C.Outbox.size()) {
    ssize_t N = send(C.Fd, C.Outbox.data() + Sent, C.Outbox.size() - Sent,
                     MSG_NOSIGNAL);
    if (N > 0) {
      Sent += static_cast<size_t>(N);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      break;
    C.Dead = true;
    return;
  }
  BytesWritten.inc(Sent);
  C.Outbox.erase(0, Sent);
}

//===----------------------------------------------------------------------===//
// Admin: swap fifo and the swap thread
//===----------------------------------------------------------------------===//

void SnapshotServer::fifoReadable() {
  char Buf[4096];
  while (true) {
    ssize_t N = read(FifoFd, Buf, sizeof(Buf));
    if (N <= 0)
      break;
    FifoBuf.append(Buf, static_cast<size_t>(N));
  }
  size_t Pos = 0;
  while (true) {
    size_t Nl = FifoBuf.find('\n', Pos);
    if (Nl == std::string::npos)
      break;
    std::string Path(trimText(
        std::string_view(FifoBuf.data() + Pos, Nl - Pos)));
    Pos = Nl + 1;
    if (!Path.empty())
      queueSwap(std::move(Path), /*ConnId=*/0);
  }
  FifoBuf.erase(0, Pos);
}

void SnapshotServer::queueSwap(std::string Path, uint64_t ConnId) {
  std::lock_guard<std::mutex> Lock(SwapMu);
  SwapTasks.push_back(SwapTask{std::move(Path), ConnId});
  ++SwapsUnanswered;
  SwapCv.notify_one();
}

void SnapshotServer::swapLoop() {
  while (true) {
    SwapTask Task;
    {
      std::unique_lock<std::mutex> Lock(SwapMu);
      SwapCv.wait(Lock, [this] { return SwapStop || !SwapTasks.empty(); });
      if (SwapTasks.empty())
        return; // SwapStop and nothing left to do
      Task = std::move(SwapTasks.front());
      SwapTasks.pop_front();
    }
    std::string Err;
    bool Ok = Registry.swapFromFile(Task.Path, Err);
    if (Ok)
      Swaps.set(Registry.swapCount());
    else
      SwapFailures.inc();
    std::shared_ptr<const ServingSnapshot> Now = Registry.pin();
    Response R;
    R.Ok = Ok;
    R.Digest = Now->digest();
    R.Epoch = Now->epoch();
    R.Text = Ok ? "swapped to epoch " + std::to_string(Now->epoch()) +
                      " from " + Task.Path
                : Err;
    {
      // Only the loop touches connections: hand the answer back to it.
      std::lock_guard<std::mutex> Lock(SwapMu);
      SwapReplies.push_back(SwapReply{Task.ConnId, std::move(R)});
    }
    wake();
  }
}
