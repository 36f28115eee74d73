//===-- net/RequestExecutor.cpp - What one serving request means -------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/RequestExecutor.h"

#include "obs/Trace.h"

#include <cctype>
#include <cstdio>

using namespace mahjong;
using namespace mahjong::net;

uint64_t mahjong::net::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::string_view trimText(std::string_view S) {
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.front())))
    S.remove_prefix(1);
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.back())))
    S.remove_suffix(1);
  return S;
}

} // namespace

RequestExecutor::RequestExecutor(SnapshotRegistry &Registry,
                                 obs::MetricsRegistry &Metrics,
                                 const obs::FlightRecorder *Recorder)
    : Registry(Registry), Metrics(Metrics), Recorder(Recorder),
      StartedAt(std::chrono::steady_clock::now()),
      Queries(Metrics.counter("net.queries_total")),
      QueryErrors(Metrics.counter("net.query_errors_total")),
      SlowQueries(Metrics.counter("net.slow_queries_total")),
      ActiveConns(Metrics.gauge("net.active_conns")),
      QueueDelayNs(Metrics.histogram("net.queue_delay_ns")),
      RequestNs(Metrics.histogram("net.request_ns")) {
  // Registers the derived gauges too, so the exposition shows every
  // series from the first scrape.
  refreshGauges();
}

Response RequestExecutor::execute(MsgType Type, std::string_view Text,
                                  uint64_t ParsedNs, uint64_t ExecStartNs) {
  QueueDelayNs.record(ExecStartNs - ParsedNs);
  MAHJONG_SPAN("net-exec");
  std::shared_ptr<const ServingSnapshot> Snap = Registry.pin();
  Response R;
  R.Digest = Snap->digest();
  R.Epoch = Snap->epoch();
  if (Type == MsgType::Ping) {
    R.Ok = true;
  } else {
    Queries.inc();
    answer(*Snap, trimText(Text), R);
    if (!R.Ok)
      QueryErrors.inc();
  }
  RequestNs.record(nowNs() - ParsedNs);
  return R;
}

void RequestExecutor::answer(const ServingSnapshot &Snap,
                             std::string_view Text, Response &R) const {
  if (Text == "health") {
    R.Ok = true;
    R.Text = healthText(Snap);
    return;
  }
  if (Text == "trace-dump") {
    R.Ok = Recorder != nullptr;
    // Leave headroom for the response envelope inside one frame.
    R.Text = Recorder
                 ? Recorder->renderJson(MaxFramePayload - 4096)
                 : "no flight recorder installed (serve runs one by default)";
    return;
  }
  serve::QueryResult QR = Snap.engine().run(Text);
  R.Ok = QR.Ok;
  if (Text != "stats") {
    R.Text = QR.Ok ? QR.toString() : QR.Error;
    return;
  }
  // The exposition covers both the pinned engine's counters and the net.*
  // tier.
  for (const std::string &Line : QR.items()) {
    R.Text += Line;
    R.Text += '\n';
  }
  refreshGauges();
  R.Text += Metrics.toPrometheus();
}

void RequestExecutor::refreshGauges() const {
  Metrics.counter("net.swaps_total").set(Registry.swapCount());
  Metrics.gauge("net.retired_snapshots")
      .set(static_cast<double>(Registry.retiredAlive()));
  Metrics.gauge("net.current_epoch")
      .set(static_cast<double>(Registry.pin()->epoch()));
  if (Recorder) {
    Metrics.gauge("flight.lanes").set(Recorder->laneCount());
    Metrics.gauge("flight.recorded_total")
        .set(static_cast<double>(Recorder->recordedTotal()));
    Metrics.gauge("flight.dropped_total")
        .set(static_cast<double>(Recorder->droppedTotal()));
    Metrics.gauge("flight.overflow_dropped")
        .set(static_cast<double>(Recorder->overflowDropped()));
  }
}

std::string RequestExecutor::healthText(const ServingSnapshot &Snap) const {
  double Uptime = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - StartedAt)
                      .count();
  serve::QueryCache::Stats Cache = Snap.engine().cacheStats();
  char Buf[1024];
  std::snprintf(
      Buf, sizeof(Buf),
      "{\"status\":\"ok\",\"epoch\":%u,\"digest\":\"%016llx\","
      "\"uptime_seconds\":%.3f,\"active_conns\":%llu,\"queries_total\":%llu,"
      "\"slow_queries_total\":%llu,\"queue_delay_p50_us\":%.3f,"
      "\"queue_delay_p95_us\":%.3f,\"queue_delay_p99_us\":%.3f,"
      "\"cache_hits\":%llu,\"cache_misses\":%llu,\"cache_evictions\":%llu,"
      "\"cache_retired\":%llu",
      Snap.epoch(), static_cast<unsigned long long>(Snap.digest()), Uptime,
      static_cast<unsigned long long>(ActiveConns.value()),
      static_cast<unsigned long long>(Queries.value()),
      static_cast<unsigned long long>(SlowQueries.value()),
      QueueDelayNs.percentile(0.50) / 1000.0,
      QueueDelayNs.percentile(0.95) / 1000.0,
      QueueDelayNs.percentile(0.99) / 1000.0,
      static_cast<unsigned long long>(Cache.Hits),
      static_cast<unsigned long long>(Cache.Misses),
      static_cast<unsigned long long>(Cache.Evictions),
      static_cast<unsigned long long>(Cache.Retired));
  std::string Out = Buf;
  if (Recorder) {
    std::snprintf(Buf, sizeof(Buf),
                  ",\"flight_recorder\":{\"lanes\":%u,\"recorded\":%llu,"
                  "\"dropped\":%llu}}",
                  Recorder->laneCount(),
                  static_cast<unsigned long long>(Recorder->recordedTotal()),
                  static_cast<unsigned long long>(Recorder->droppedTotal() +
                                                  Recorder->overflowDropped()));
    Out += Buf;
  } else {
    Out += ",\"flight_recorder\":null}";
  }
  return Out;
}
