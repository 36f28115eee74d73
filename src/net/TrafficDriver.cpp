//===-- net/TrafficDriver.cpp - Closed-loop traffic replay -------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/TrafficDriver.h"

#include "net/Client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>

using namespace mahjong;
using namespace mahjong::net;

namespace {

class LoopbackChannel final : public Channel {
public:
  explicit LoopbackChannel(RequestExecutor &Exec) : Exec(Exec) {}
  bool roundTrip(std::string_view Text, Response &R, std::string &) override {
    uint64_t Now = nowNs();
    R = Exec.execute(MsgType::Query, Text, Now, Now);
    return true;
  }

private:
  RequestExecutor &Exec;
};

class SocketChannel final : public Channel {
public:
  bool roundTrip(std::string_view Text, Response &R,
                 std::string &Err) override {
    return Conn.query(Text, R, Err);
  }
  Client Conn;
};

/// The number after "\"Key\":" in a flat JSON object, or 0 when absent.
double jsonNumber(const std::string &Json, const char *Key) {
  std::string Needle = std::string("\"") + Key + "\":";
  size_t Pos = Json.find(Needle);
  return Pos == std::string::npos
             ? 0
             : std::strtod(Json.c_str() + Pos + Needle.size(), nullptr);
}

} // namespace

std::unique_ptr<Channel> LoopbackTransport::open(std::string &) {
  return std::make_unique<LoopbackChannel>(Exec);
}

std::unique_ptr<Channel> SocketTransport::open(std::string &Err) {
  auto C = std::make_unique<SocketChannel>();
  if (!C->Conn.connect(Host, Port, Err))
    return nullptr;
  return C;
}

std::string TrafficReport::toJson() const {
  std::ostringstream OS;
  OS << "{\"queries\": " << Queries << ", \"failed\": " << Failed
     << ", \"transport_errors\": " << TransportErrors
     << ", \"connections\": " << Connections
     << ", \"reconnects\": " << Reconnects << ", \"seconds\": " << Seconds
     << ", \"qps\": " << QPS << ", \"p50_us\": " << P50Micros
     << ", \"p95_us\": " << P95Micros << ", \"p99_us\": " << P99Micros
     << ", \"queue_delay_p50_us\": " << QueueDelayP50Micros
     << ", \"queue_delay_p95_us\": " << QueueDelayP95Micros
     << ", \"queue_delay_p99_us\": " << QueueDelayP99Micros
     << ", \"slow_queries\": " << SlowQueries
     << ", \"cache_hits\": " << Cache.Hits
     << ", \"cache_misses\": " << Cache.Misses
     << ", \"cache_evictions\": " << Cache.Evictions
     << ", \"cache_retired\": " << Cache.Retired
     << ", \"epoch_min\": " << EpochMin << ", \"epoch_max\": " << EpochMax
     << ", \"digests_seen\": " << DigestsSeen.size() << ", \"digests\": [";
  for (size_t I = 0; I < DigestsSeen.size(); ++I) {
    char Hex[32];
    std::snprintf(Hex, sizeof(Hex), "%s\"%016llx\"", I ? ", " : "",
                  static_cast<unsigned long long>(DigestsSeen[I]));
    OS << Hex;
  }
  OS << "], \"kinds\": {";
  bool First = true;
  for (unsigned K = 0; K < serve::NumDataQueryKinds; ++K) {
    const KindLatency &KL = Kinds[K];
    if (KL.Count == 0)
      continue;
    if (!First)
      OS << ", ";
    First = false;
    OS << "\"" << serve::queryKindName(static_cast<serve::QueryKind>(K))
       << "\": {\"count\": " << KL.Count << ", \"p50_us\": " << KL.P50Micros
       << ", \"p95_us\": " << KL.P95Micros
       << ", \"p99_us\": " << KL.P99Micros << "}";
  }
  OS << "}}";
  return OS.str();
}

TrafficReport mahjong::net::runTraffic(const serve::SnapshotData &KeyData,
                                       const serve::QueryWorkload &W,
                                       Transport &T, std::ostream *Progress) {
  using Clock = std::chrono::steady_clock;

  // Latency goes straight into shared histograms — thread-safe (relaxed
  // atomic counts), O(1) memory in the query volume, and the same
  // reservoir the heartbeat thread reads live.
  LogHistogram OverallNs;
  LogHistogram PerKindNs[serve::NumDataQueryKinds];
  std::atomic<uint64_t> Completed{0}, Failed{0}, Slow{0}, TransportErrors{0};
  std::atomic<uint64_t> Connections{0}, Reconnects{0};
  std::mutex SeenMu;
  std::set<uint64_t> Digests;          ///< guarded by SeenMu
  uint32_t EpochMin = ~0u, EpochMax = 0; ///< guarded by SeenMu

  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline =
      W.DurationSeconds > 0
          ? Start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(W.DurationSeconds))
          : Clock::time_point::max();

  std::vector<std::thread> Clients;
  Clients.reserve(W.Clients);
  for (unsigned C = 0; C < W.Clients; ++C) {
    Clients.emplace_back([&, C] {
      // Phased ramp: client C joins C * ramp_seconds into the run, so
      // load builds in steps instead of a thundering herd.
      if (W.RampSeconds > 0 && C > 0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(C * W.RampSeconds));

      serve::QueryGenerator Gen(KeyData, W, C);
      std::string Err;
      std::unique_ptr<Channel> Chan = T.open(Err);
      if (!Chan) {
        TransportErrors.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      Connections.fetch_add(1, std::memory_order_relaxed);

      std::set<uint64_t> LocalDigests;
      uint32_t LocalMin = ~0u, LocalMax = 0;
      for (uint64_t I = 0;; ++I) {
        if (W.DurationSeconds > 0) {
          if (Clock::now() >= Deadline)
            break;
        } else if (I >= W.QueriesPerClient) {
          break;
        }
        // Connection churn: close the channel and open a new one every
        // churn_every queries, so accept/close paths stay hot too.
        if (W.ChurnEvery > 0 && I > 0 && I % W.ChurnEvery == 0) {
          Chan.reset();
          Chan = T.open(Err);
          if (!Chan) {
            TransportErrors.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          Connections.fetch_add(1, std::memory_order_relaxed);
          Reconnects.fetch_add(1, std::memory_order_relaxed);
        }
        serve::QueryKind Kind = serve::QueryKind::PointsTo;
        std::string Text = Gen.next(&Kind);
        Response R;
        Clock::time_point T0 = Clock::now();
        if (!Chan->roundTrip(Text, R, Err)) {
          TransportErrors.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        uint64_t Ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - T0)
                .count());
        OverallNs.record(Ns);
        PerKindNs[static_cast<unsigned>(Kind)].record(Ns);
        Completed.fetch_add(1, std::memory_order_relaxed);
        Failed.fetch_add(!R.Ok, std::memory_order_relaxed);
        if (W.SlowQueryMicros && Ns >= W.SlowQueryMicros * 1000)
          Slow.fetch_add(1, std::memory_order_relaxed);
        LocalDigests.insert(R.Digest);
        LocalMin = std::min(LocalMin, R.Epoch);
        LocalMax = std::max(LocalMax, R.Epoch);
      }
      std::lock_guard<std::mutex> Lock(SeenMu);
      Digests.insert(LocalDigests.begin(), LocalDigests.end());
      EpochMin = std::min(EpochMin, LocalMin);
      EpochMax = std::max(EpochMax, LocalMax);
    });
  }

  // The heartbeat thread reads the shared counters the clients are still
  // writing — by design: progress lines must reflect the live run.
  std::mutex HeartbeatMu;
  std::condition_variable HeartbeatCv;
  bool Done = false;
  std::thread Heartbeat;
  if (Progress && W.HeartbeatSeconds > 0) {
    Heartbeat = std::thread([&] {
      auto Period = std::chrono::duration<double>(W.HeartbeatSeconds);
      std::unique_lock<std::mutex> Lock(HeartbeatMu);
      while (!HeartbeatCv.wait_for(Lock, Period, [&] { return Done; })) {
        double Secs =
            std::chrono::duration<double>(Clock::now() - Start).count();
        uint64_t N = Completed.load(std::memory_order_relaxed);
        std::ostringstream Line;
        Line << "[serve-bench] t=" << Secs << "s queries=" << N
             << " qps=" << (Secs > 0 ? N / Secs : 0) << "\n";
        *Progress << Line.str() << std::flush;
      }
    });
  }

  for (std::thread &Th : Clients)
    Th.join();
  if (Heartbeat.joinable()) {
    {
      std::lock_guard<std::mutex> Lock(HeartbeatMu);
      Done = true;
    }
    HeartbeatCv.notify_all();
    Heartbeat.join();
  }
  double Seconds =
      std::chrono::duration<double>(Clock::now() - Start).count();

  TrafficReport Rep;
  Rep.Queries = Completed.load(std::memory_order_relaxed);
  Rep.Failed = Failed.load(std::memory_order_relaxed);
  Rep.TransportErrors = TransportErrors.load(std::memory_order_relaxed);
  Rep.Connections = Connections.load(std::memory_order_relaxed);
  Rep.Reconnects = Reconnects.load(std::memory_order_relaxed);
  Rep.Seconds = Seconds;
  Rep.QPS = Seconds > 0 ? Rep.Queries / Seconds : 0;
  Rep.P50Micros = OverallNs.percentile(0.50) / 1000.0;
  Rep.P95Micros = OverallNs.percentile(0.95) / 1000.0;
  Rep.P99Micros = OverallNs.percentile(0.99) / 1000.0;
  Rep.SlowQueries = Slow.load(std::memory_order_relaxed);
  for (unsigned K = 0; K < serve::NumDataQueryKinds; ++K) {
    TrafficReport::KindLatency &KL = Rep.Kinds[K];
    KL.Count = PerKindNs[K].count();
    if (KL.Count == 0)
      continue;
    KL.P50Micros = PerKindNs[K].percentile(0.50) / 1000.0;
    KL.P95Micros = PerKindNs[K].percentile(0.95) / 1000.0;
    KL.P99Micros = PerKindNs[K].percentile(0.99) / 1000.0;
  }
  Rep.DigestsSeen.assign(Digests.begin(), Digests.end());
  Rep.EpochMin = EpochMin == ~0u ? 0 : EpochMin;
  Rep.EpochMax = EpochMax;

  // The answering side's own view of the run. Best effort: a failed
  // round trip leaves these fields at zero.
  std::string Err;
  Response H;
  if (std::unique_ptr<Channel> Chan = T.open(Err);
      Chan && Chan->roundTrip("health", H, Err) && H.Ok) {
    Rep.QueueDelayP50Micros = jsonNumber(H.Text, "queue_delay_p50_us");
    Rep.QueueDelayP95Micros = jsonNumber(H.Text, "queue_delay_p95_us");
    Rep.QueueDelayP99Micros = jsonNumber(H.Text, "queue_delay_p99_us");
    Rep.Cache.Hits = jsonNumber(H.Text, "cache_hits");
    Rep.Cache.Misses = jsonNumber(H.Text, "cache_misses");
    Rep.Cache.Evictions = jsonNumber(H.Text, "cache_evictions");
    Rep.Cache.Retired = jsonNumber(H.Text, "cache_retired");
  }
  return Rep;
}
