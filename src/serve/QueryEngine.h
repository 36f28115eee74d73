//===-- serve/QueryEngine.h - Concurrent points-to queries ----*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A serving session over one loaded snapshot: parse typed queries,
/// answer them from the immutable SnapshotData, and cache answers in a
/// bounded, LRU-evicting table whose *read path takes no locks* — safe
/// for any number of concurrent callers.
///
/// Query grammar (one query per line; see docs/serving.md):
///
///   query  := "points-to" var          — objects a variable may point to
///           | "alias" var var          — may the two variables alias?
///           | "devirt" NUM             — callee methods of call site NUM
///           | "cast-may-fail" NUM      — may cast site NUM fail?
///           | "callers" method         — methods with a call edge into m
///           | "callees" method         — methods m may call
///           | "stats"                  — live engine metrics (Prometheus
///                                        text lines; never cached)
///   var    := method "::" NAME        e.g. Main.main/0::x
///   method := signature               e.g. A.m/1
///
/// Concurrency contract: the snapshot is immutable after construction;
/// each points-to set is rendered at most once per engine, published
/// through a once-flag per set; cache hits are acquire-loads of
/// published entries plus one relaxed LRU-clock store; only inserts
/// (misses) take the internal write mutex. Answers are immutable and
/// shared, so a hit copies a reference, not the items.
/// Evicted entries are unlinked but retired rather than freed, so a
/// reader holding a stale pointer can never observe a dangling entry;
/// retired memory is reclaimed when the engine is destroyed. The retire
/// store is capped (a small multiple of the capacity): once spent, new
/// results are served uncached instead of allocated, and error results
/// (unknown entities — an unbounded key space) are never cached, so a
/// long-running engine's memory stays bounded under any query stream.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_SERVE_QUERYENGINE_H
#define MAHJONG_SERVE_QUERYENGINE_H

#include "serve/Snapshot.h"

#include "support/Histogram.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mahjong::serve {

enum class QueryKind : uint8_t {
  PointsTo,
  Alias,
  Devirt,
  CastMayFail,
  Callers,
  Callees,
  Stats, ///< introspection verb; not a data query, never cached
};

/// The data-query kinds (everything before Stats) — the dimension of the
/// per-kind latency histograms in QueryEngine and the traffic driver.
inline constexpr unsigned NumDataQueryKinds = 6;

/// The query verb naming \p K ("points-to", "alias", ...).
const char *queryKindName(QueryKind K);

/// One parsed query. A and B are entity keys per the grammar above.
struct Query {
  QueryKind Kind = QueryKind::PointsTo;
  std::string A;
  std::string B; ///< second variable; alias only
};

/// Parses one textual query. \returns false with a diagnostic in \p Err.
bool parseQuery(std::string_view Text, Query &Q, std::string &Err);

/// The answer to one query. A value type whose item list is an immutable,
/// shared payload: copying a result (a cache hit, a cache insert, a
/// caller keeping it) bumps a reference count and never copies strings,
/// and a result stays valid after the engine that made it is gone.
struct QueryResult {
  using ItemList = std::vector<std::string>;

  bool Ok = false;
  std::string Error;       ///< set when !Ok
  bool HasVerdict = false; ///< alias / cast-may-fail carry a boolean
  bool Verdict = false;

  /// Points-to / devirt / callers / callees / stats items; empty for
  /// verdicts and errors.
  const ItemList &items() const { return Items ? *Items : NoItems; }
  /// Replaces the items with the shared list \p L.
  void setItems(std::shared_ptr<const ItemList> L) { Items = std::move(L); }

  /// One-line rendering ("true", "false", or comma-joined items).
  std::string toString() const;

private:
  static const ItemList NoItems;
  std::shared_ptr<const ItemList> Items;
};

/// Bounded concurrent query cache: open-addressed buckets of atomically
/// published entries, approximate-LRU eviction via a global clock.
class QueryCache {
public:
  /// \p Capacity is rounded up to a power of two bucket count.
  explicit QueryCache(size_t Capacity);
  ~QueryCache();

  QueryCache(const QueryCache &) = delete;
  QueryCache &operator=(const QueryCache &) = delete;

  /// Lock-free lookup; null on miss. The returned pointer stays valid for
  /// the cache's lifetime (entries are retired, never freed early).
  const QueryResult *lookup(std::string_view Key) const;

  /// Publishes \p Key -> \p R, evicting the least-recently-used entry of
  /// the probe window when it is full. Idempotent under races.
  void insert(std::string_view Key, QueryResult R);

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Insertions = 0;
    uint64_t Evictions = 0;
    uint64_t Retired = 0; ///< entries in the retire store (live included)
  };
  Stats stats() const;

private:
  struct Entry;
  static constexpr unsigned ProbeWindow = 8;

  std::vector<std::atomic<Entry *>> Buckets;
  uint64_t Mask;

  std::mutex WriteMutex;
  /// Owns every entry ever made (live ones included). Bounded by
  /// RetiredCap: once spent, inserts become no-ops and misses are served
  /// uncached, so cache memory cannot grow without bound.
  std::vector<std::unique_ptr<Entry>> Retired;
  size_t RetiredCap;
  /// Retired.size() mirrored for lock-free stats() reads.
  std::atomic<uint64_t> RetiredCount{0};

  mutable std::atomic<uint64_t> Clock{0};
  mutable std::atomic<uint64_t> Hits{0}, Misses{0};
  std::atomic<uint64_t> Insertions{0}, Evictions{0};
};

/// A query session over one snapshot. Immutable after construction except
/// for the internal cache and the per-set renderings; run() is safe to
/// call from many threads.
class QueryEngine {
public:
  explicit QueryEngine(std::shared_ptr<const SnapshotData> Data,
                       size_t CacheCapacity = 1 << 14);

  const SnapshotData &data() const { return *Data; }

  /// Parse + cached evaluate. Parse failures and unknown-entity errors
  /// are reported in the result but never cached; only successful
  /// answers are answered through (and inserted into) the cache.
  QueryResult run(std::string_view QueryText) const;

  /// Evaluates \p Q with no cache involvement.
  QueryResult evaluate(const Query &Q) const;

  QueryCache::Stats cacheStats() const { return Cache.stats(); }

  /// End-to-end run() latency (cache hits included) of one data-query
  /// kind, in nanoseconds. `stats` runs are not recorded.
  const LogHistogram &latencyHistogram(QueryKind K) const {
    return KindLatencyNs[static_cast<unsigned>(K)];
  }

private:
  QueryResult pointsTo(const std::string &VarKey) const;
  QueryResult statsResult() const;
  QueryResult alias(const std::string &KeyA, const std::string &KeyB) const;
  QueryResult devirt(const std::string &SiteIdx) const;
  QueryResult castMayFail(const std::string &CastIdx) const;
  QueryResult callersOf(const std::string &Sig) const;
  QueryResult calleesOf(const std::string &Sig) const;

  bool lookupVar(const std::string &VarKey, uint32_t &V,
                 std::string &Err) const;
  /// The rendered labels of points-to set \p S (an index into
  /// SnapshotData::PtsSets), made on first use and shared by every
  /// variable and cached answer with that set.
  std::shared_ptr<const QueryResult::ItemList>
  renderedSet(uint32_t S) const;
  /// The signatures of \p Methods, sorted.
  std::shared_ptr<const QueryResult::ItemList>
  sortedSignatures(const std::vector<uint32_t> &Methods) const;

  /// One publish-once slot per PtsSets entry.
  struct RenderedSet {
    std::once_flag Once;
    std::shared_ptr<const QueryResult::ItemList> Items;
  };

  std::shared_ptr<const SnapshotData> Data;
  std::unique_ptr<RenderedSet[]> Rendered;
  std::unordered_map<std::string, uint32_t> VarByKey;
  std::unordered_map<std::string, uint32_t> MethodBySig;
  /// Per method: sorted unique callee methods over its call sites, and
  /// sorted unique caller methods — precomputed so the call-graph queries
  /// are O(answer) at serving time.
  std::unordered_map<uint32_t, std::vector<uint32_t>> CalleesByMethod;
  std::unordered_map<uint32_t, std::vector<uint32_t>> CallersByMethod;
  mutable QueryCache Cache;
  mutable LogHistogram KindLatencyNs[NumDataQueryKinds];
};

} // namespace mahjong::serve

#endif // MAHJONG_SERVE_QUERYENGINE_H
