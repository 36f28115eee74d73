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
/// Query execution is inline on the event loop by default — a cached
/// query is sub-microsecond, so a thread handoff would *add* latency; a
/// worker pool (Config.Workers > 0) serves deployments with expensive
/// uncached mixes. Snapshot swaps always decode on a dedicated admin
/// thread so the serving loop never stalls behind a multi-second decode;
/// a connection that pipelines requests behind its own `swap` simply has
/// its queue paused until the swap resolves, preserving per-connection
/// response order. Graceful shutdown stops accepting, drains queued
/// requests and write buffers up to a deadline, then linger-closes.
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
#include "support/ThreadPool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace mahjong::net {

struct ServerConfig {
  std::string Host = "127.0.0.1";
  uint16_t Port = 0; ///< 0 = ephemeral; read the bound port via port()
  unsigned MaxConns = 256;
  /// Parsed-but-unanswered requests per connection before reads pause.
  unsigned MaxInflight = 64;
  /// Write-buffer bytes before a slow reader is disconnected.
  size_t MaxOutboxBytes = 4u << 20;
  /// 0 = execute queries inline on the event loop; > 0 = worker pool.
  unsigned Workers = 0;
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
    uint64_t Id = 0;     ///< process-wide request id (slow-query log key)
    uint64_t RecvNs = 0; ///< stamp when the request's bytes arrived
  };

  /// One connection's state. The event loop owns Fd / RdBuf / Mode;
  /// Queue / Outbox / flags are shared with workers under Mu.
  struct Conn {
    int Fd = -1;
    uint64_t Id = 0;
    enum class IoMode : uint8_t { Unknown, Binary, Line } Mode =
        IoMode::Unknown;
    std::string RdBuf;
    /// Stamp of the recv() that last appended to RdBuf: the "accepted"
    /// stage for every request parsed out of it (loop thread only).
    uint64_t RecvNs = 0;

    std::mutex Mu;
    std::deque<PendingReq> Queue;
    std::string Outbox;
    bool Running = false;      ///< a pool worker is draining Queue
    bool AwaitingSwap = false; ///< queue paused behind an admin swap
    bool Draining = false;     ///< no more reads; close once Outbox empty
    bool Dead = false;         ///< close at the next loop pass
  };

  struct SwapTask {
    std::string Path;
    std::shared_ptr<Conn> Replier; ///< null for fifo-driven swaps
  };

  void loop();
  void wake();
  void acceptReady();
  void readable(const std::shared_ptr<Conn> &C);
  void writable(const std::shared_ptr<Conn> &C);
  void parseBuffered(const std::shared_ptr<Conn> &C);
  /// Starts or continues executing C's queue per the execution mode.
  void pump(const std::shared_ptr<Conn> &C);
  /// Drains C's queue until empty or paused; runs on the loop thread
  /// (inline mode) or a pool worker.
  void drainQueue(const std::shared_ptr<Conn> &C);
  void respond(const std::shared_ptr<Conn> &C, const Response &R);
  void failProtocol(const std::shared_ptr<Conn> &C, const std::string &Why);
  void closeConn(uint64_t Id);
  void fifoReadable();
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

  std::map<uint64_t, std::shared_ptr<Conn>> Conns; ///< loop thread only
  uint64_t NextConnId = 1;
  /// While in the future, the listener is not polled: after accept4
  /// fails with EMFILE/ENFILE the fd stays readable until the backlog
  /// drains, and polling it would spin the loop at 100% CPU.
  std::chrono::steady_clock::time_point AcceptBackoffUntil{};

  std::atomic<bool> Stopping{false};
  std::thread LoopThread;
  std::atomic<uint64_t> NextReqId{1};
  std::mutex SlowLogMu; ///< slow-query lines stay unfragmented

  std::unique_ptr<ThreadPool> Pool; ///< only when Config.Workers > 0

  std::thread SwapThread;
  std::mutex SwapMu;
  std::condition_variable SwapCv;
  std::deque<SwapTask> SwapTasks;
  bool SwapStop = false;

  mutable obs::MetricsRegistry Metrics;
  /// Verb dispatch, pinning, stamping and the request metrics; declared
  /// after Metrics, whose series it resolves at construction.
  RequestExecutor Exec;
};

} // namespace mahjong::net

#endif // MAHJONG_NET_SNAPSHOTSERVER_H
