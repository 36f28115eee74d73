//===-- net/SnapshotServer.h - Socket serving tier ------------*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The network front end over a SnapshotRegistry: a poll()-based
/// asynchronous socket server speaking net::Protocol (binary frames with
/// the newline-JSON fallback), one event-loop thread multiplexing every
/// connection.
///
/// Per-connection state machine: bytes accumulate in a read buffer until
/// whole frames (or lines) appear; parsed requests queue per connection
/// and are answered strictly in order; responses accumulate in a write
/// buffer flushed as the socket drains. Backpressure at every stage:
///
///  - total connections are bounded (the listener is simply not polled
///    while at the cap — the kernel backlog absorbs the burst),
///  - parsed-but-unanswered requests per connection are bounded; a
///    connection at the bound stops being read until its queue drains,
///  - a slow reader whose write buffer exceeds the cap is disconnected
///    (the alternative is unbounded server memory).
///
/// Query execution is inline on the event loop — a cached query is
/// sub-microsecond, so a thread handoff would only add latency. Snapshot
/// swaps decode on a dedicated admin thread so the serving loop never
/// stalls behind a multi-second decode; a connection that pipelines
/// requests behind its own `swap` has its queue paused until the admin
/// thread hands the swap's answer back to the loop, preserving
/// per-connection response order. Graceful shutdown stops accepting,
/// drains queued requests and write buffers up to a deadline, then
/// linger-closes.
///
/// Threading: the event loop is the only thread that touches a
/// connection. The state shared across threads is exactly: the Stopping
/// flag, the swap task and reply queues (under SwapMu), the wake pipe,
/// and the registry and metrics, which are thread-safe themselves.
///
/// What each request means — verb dispatch, the per-request pin, the
/// digest/epoch stamp of that snapshot, the request metrics — is the
/// RequestExecutor's; the server adds the transport around it.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_NET_SNAPSHOTSERVER_H
#define MAHJONG_NET_SNAPSHOTSERVER_H

#include "net/Protocol.h"
#include "net/RequestExecutor.h"
#include "net/SnapshotRegistry.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>

namespace mahjong::net {

struct ServerConfig {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0; ///< 0 = ephemeral; read the bound port via port()
  unsigned MaxConns = 256;
  /// Parsed-but-unanswered requests per connection before reads pause.
  unsigned MaxInflight = 64;
  /// Write-buffer bytes before a slow reader is disconnected.
  size_t MaxOutboxBytes = 4u << 20;
  /// Optional FIFO path: each line written to it is a .mjsnap path to
  /// swap to (the out-of-band admin channel for `serve --swap-fifo`).
  std::string SwapFifo;
  /// Graceful-stop drain deadline.
  double DrainSeconds = 5.0;
  /// Requests whose accepted-to-responded total meets this threshold
  /// are logged as single-line JSON to SlowLog. 0 disables.
  uint64_t SlowQueryMicros = 0;
  /// Slow-query destination; null means std::cerr.
  std::ostream *SlowLog = nullptr;
  /// When set, the `trace-dump` admin verb serves this recorder's
  /// renderJson() (bounded to one protocol frame). Not owned; must
  /// outlive the server. The server does not install it as the global
  /// trace sink — the CLI decides that.
  obs::FlightRecorder *Recorder = nullptr;
};

/// A running server over one registry. start() spawns the event loop;
/// stop() (or destruction) drains and joins it.
class SnapshotServer {
public:
  SnapshotServer(SnapshotRegistry &Registry, ServerConfig Config);
  ~SnapshotServer();

  SnapshotServer(const SnapshotServer &) = delete;
  SnapshotServer &operator=(const SnapshotServer &) = delete;

  /// Binds, listens, and spawns the event-loop and admin threads.
  /// \returns false with a diagnostic in \p Err (nothing spawned).
  bool start(std::string &Err);

  /// Graceful shutdown: stop accepting, drain in-flight requests and
  /// write buffers (bounded by Config.DrainSeconds), close, join.
  /// Idempotent.
  void stop();

  bool running() const { return LoopThread.joinable(); }

  /// The bound port (resolves Config.Port == 0 after start()).
  uint16_t port() const { return BoundPort; }
  const std::string &host() const { return Config.Host; }

  SnapshotRegistry &registry() { return Registry; }

  /// Live counters (net.* names; Prometheus exposition sanitizes to
  /// net_*). The `stats` query verb answers engine metrics plus these.
  obs::MetricsRegistry &metrics() const { return Metrics; }

  /// Recomputes the derived gauges (swap counts, retired snapshots,
  /// epoch, flight-recorder occupancy) so a metrics export sees current
  /// values. The `stats` verb does this itself; callers exporting via
  /// metrics() should refresh first.
  void refreshGauges() const;

private:
  struct PendingReq {
    MsgType Type;
    std::string Text; ///< query text, swap path, or a parse diagnostic
    uint64_t StartNs; ///< steady-clock stamp at parse time
    /// Text is a protocol diagnostic, answered as an error *in queue
    /// order* — clients correlate responses by position, so even a
    /// malformed request's answer must not jump ahead of earlier ones.
    bool ParseError = false;
    uint64_t Id = 0;     ///< server-wide request id (slow-query log key)
    uint64_t RecvNs = 0; ///< stamp when the request's bytes arrived
  };

  /// One connection's state; the event loop's alone.
  struct Conn {
    int Fd = -1;
    uint64_t Id = 0;
    enum class IoMode : uint8_t { Unknown, Binary, Line } Mode =
        IoMode::Unknown;
    std::string RdBuf;
    /// Stamp of the recv() that last appended to RdBuf: the "accepted"
    /// stage for every request parsed out of it.
    uint64_t RecvNs = 0;
    std::deque<PendingReq> Queue;
    std::string Outbox;
    bool AwaitingSwap = false; ///< queue paused behind an admin swap
    bool Draining = false;     ///< no more reads; close once Outbox empty
    bool Dead = false;         ///< close at the next loop pass
  };

  struct SwapTask {
    std::string Path;
    uint64_t ConnId = 0; ///< 0 for fifo swaps (no connection has id 0)
  };
  /// A decoded swap's answer, for the loop to deliver to ConnId.
  struct SwapReply {
    uint64_t ConnId = 0;
    Response R;
  };

  void loop();
  void wake();
  void acceptReady();
  void readable(Conn &C);
  void writable(Conn &C);
  void parseBuffered(Conn &C);
  /// Answers C's queue in order until it is empty, or paused behind a
  /// swap handed to the admin thread.
  void drainQueue(Conn &C);
  void respond(Conn &C, const Response &R);
  void failProtocol(Conn &C, const std::string &Why);
  void closeConn(uint64_t Id);
  void fifoReadable();
  void queueSwap(std::string Path, uint64_t ConnId);
  void swapLoop();
  /// One structured line to Config.SlowLog (default stderr) describing
  /// a request whose total latency met Config.SlowQueryMicros.
  void emitSlowQuery(const PendingReq &Req, const Response &R,
                     uint64_t ExecStartNs, uint64_t RespNs);

  SnapshotRegistry &Registry;
  ServerConfig Config;
  uint16_t BoundPort = 0;

  int ListenFd = -1;
  int WakeRd = -1, WakeWr = -1;
  int FifoFd = -1;
  std::string FifoBuf;

  std::map<uint64_t, Conn> Conns; ///< loop thread only
  uint64_t NextConnId = 1;
  uint64_t NextReqId = 1;
  /// While in the future, the listener is not polled: after accept4
  /// fails with EMFILE/ENFILE the fd stays readable until the backlog
  /// drains, and polling it would spin the loop at 100% CPU.
  std::chrono::steady_clock::time_point AcceptBackoffUntil{};

  std::atomic<bool> Stopping{false};
  std::thread LoopThread;

  std::thread SwapThread;
  std::mutex SwapMu;
  std::condition_variable SwapCv;
  std::deque<SwapTask> SwapTasks;
  std::deque<SwapReply> SwapReplies;
  /// Swaps queued, decoding, or answered but not yet taken by the loop;
  /// a graceful stop waits for them.
  size_t SwapsUnanswered = 0;
  bool SwapStop = false;

  mutable obs::MetricsRegistry Metrics;
  /// Verb dispatch, pinning, stamping and the request metrics; declared
  /// after Metrics, whose series it resolves at construction.
  RequestExecutor Exec;
  /// Transport series, resolved (and so registered at zero) once at
  /// construction; the hot path never looks a name up.
  obs::Counter &Accepted, &Closed, &Frames, &Lines, &ProtocolErrors,
      &SlowReaderDisconnects, &SlowQueries, &Swaps, &SwapFailures,
      &BytesRead, &BytesWritten;
  obs::Gauge &ActiveConns;
};

} // namespace mahjong::net

#endif // MAHJONG_NET_SNAPSHOTSERVER_H
