//===-- serve/QueryEngine.cpp - Concurrent points-to queries -----------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/QueryEngine.h"

#include "ir/Entities.h"
#include "obs/Metrics.h"
#include "support/Hashing.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <chrono>
#include <sstream>

using namespace mahjong;
using namespace mahjong::serve;

//===----------------------------------------------------------------------===//
// Query parsing
//===----------------------------------------------------------------------===//

/// The C locale's whitespace: what `std::istream >> std::string` splits on.
static bool isQuerySpace(char C) {
  return C == ' ' || C == '\t' || C == '\n' || C == '\v' || C == '\f' ||
         C == '\r';
}

bool mahjong::serve::parseQuery(std::string_view Text, Query &Q,
                                std::string &Err) {
  // A query has at most three tokens; a fourth is only counted, for the
  // arity diagnostic.
  std::string_view Tokens[3];
  size_t NumTokens = 0;
  for (size_t I = 0; I < Text.size();) {
    if (isQuerySpace(Text[I])) {
      ++I;
      continue;
    }
    size_t End = I;
    while (End < Text.size() && !isQuerySpace(Text[End]))
      ++End;
    if (NumTokens < std::size(Tokens))
      Tokens[NumTokens] = Text.substr(I, End - I);
    ++NumTokens;
    I = End;
  }
  if (NumTokens == 0) {
    Err = "empty query";
    return false;
  }
  struct Form {
    const char *Verb;
    QueryKind Kind;
    unsigned Args;
  };
  static const Form Forms[] = {
      {"points-to", QueryKind::PointsTo, 1},
      {"alias", QueryKind::Alias, 2},
      {"devirt", QueryKind::Devirt, 1},
      {"cast-may-fail", QueryKind::CastMayFail, 1},
      {"callers", QueryKind::Callers, 1},
      {"callees", QueryKind::Callees, 1},
      {"stats", QueryKind::Stats, 0},
  };
  for (const Form &F : Forms) {
    if (Tokens[0] != F.Verb)
      continue;
    if (NumTokens != F.Args + 1) {
      Err = std::string("'") + F.Verb + "' expects " +
            std::to_string(F.Args) + " argument(s), got " +
            std::to_string(NumTokens - 1);
      return false;
    }
    Q.Kind = F.Kind;
    Q.A = Tokens[1];
    Q.B = Tokens[2];
    return true;
  }
  Err = "unknown query verb '" + std::string(Tokens[0]) +
        "' (expected points-to, alias, devirt, cast-may-fail, callers, "
        "callees or stats)";
  return false;
}

const char *mahjong::serve::queryKindName(QueryKind K) {
  switch (K) {
  case QueryKind::PointsTo:
    return "points-to";
  case QueryKind::Alias:
    return "alias";
  case QueryKind::Devirt:
    return "devirt";
  case QueryKind::CastMayFail:
    return "cast-may-fail";
  case QueryKind::Callers:
    return "callers";
  case QueryKind::Callees:
    return "callees";
  case QueryKind::Stats:
    return "stats";
  }
  return "unknown";
}

const QueryResult::ItemList QueryResult::NoItems;

std::string QueryResult::toString() const {
  if (!Ok)
    return "error: " + Error;
  if (HasVerdict)
    return Verdict ? "true" : "false";
  std::string S = "[";
  const ItemList &L = items();
  for (size_t I = 0; I < L.size(); ++I) {
    if (I)
      S += ", ";
    S += L[I];
  }
  return S + "]";
}

//===----------------------------------------------------------------------===//
// QueryCache
//===----------------------------------------------------------------------===//

struct QueryCache::Entry {
  uint64_t Hash;
  std::string Key;
  QueryResult Result;
  mutable std::atomic<uint64_t> LastUsed;
};

QueryCache::QueryCache(size_t Capacity) {
  size_t N = std::bit_ceil(std::max<size_t>(Capacity, 2 * ProbeWindow));
  Buckets = std::vector<std::atomic<Entry *>>(N);
  Mask = N - 1;
  // Retired entries are the cache's total allocation footprint (live
  // entries included); the cap bounds memory no matter how diverse the
  // query stream is. 8x the bucket count leaves ample eviction turnover.
  RetiredCap = 8 * N;
}

QueryCache::~QueryCache() = default;

const QueryResult *QueryCache::lookup(std::string_view Key) const {
  uint64_t H = fnv1a64(Key);
  for (unsigned I = 0; I < ProbeWindow; ++I) {
    const Entry *E = Buckets[(H + I) & Mask].load(std::memory_order_acquire);
    if (E && E->Hash == H && E->Key == Key) {
      E->LastUsed.store(Clock.fetch_add(1, std::memory_order_relaxed),
                        std::memory_order_relaxed);
      Hits.fetch_add(1, std::memory_order_relaxed);
      return &E->Result;
    }
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void QueryCache::insert(std::string_view Key, QueryResult R) {
  uint64_t H = fnv1a64(Key);
  std::lock_guard<std::mutex> Lock(WriteMutex);
  // Re-probe under the lock: a racing inserter may have published the
  // same key; refreshing its clock is all that is left to do.
  size_t FreeSlot = SIZE_MAX, VictimSlot = SIZE_MAX;
  uint64_t VictimUsed = UINT64_MAX;
  for (unsigned I = 0; I < ProbeWindow; ++I) {
    size_t Slot = (H + I) & Mask;
    Entry *E = Buckets[Slot].load(std::memory_order_relaxed);
    if (!E) {
      if (FreeSlot == SIZE_MAX)
        FreeSlot = Slot;
      continue;
    }
    if (E->Hash == H && E->Key == Key) {
      E->LastUsed.store(Clock.fetch_add(1, std::memory_order_relaxed),
                        std::memory_order_relaxed);
      return;
    }
    uint64_t Used = E->LastUsed.load(std::memory_order_relaxed);
    if (Used < VictimUsed) {
      VictimUsed = Used;
      VictimSlot = Slot;
    }
  }
  // Retire budget exhausted: keep serving the published entries but stop
  // allocating new ones — misses fall back to uncached evaluation.
  if (Retired.size() >= RetiredCap)
    return;
  RetiredCount.fetch_add(1, std::memory_order_relaxed);
  auto E = std::make_unique<Entry>();
  E->Hash = H;
  E->Key = std::string(Key);
  E->Result = std::move(R);
  E->LastUsed.store(Clock.fetch_add(1, std::memory_order_relaxed),
                    std::memory_order_relaxed);
  size_t Slot = FreeSlot != SIZE_MAX ? FreeSlot : VictimSlot;
  if (FreeSlot == SIZE_MAX)
    Evictions.fetch_add(1, std::memory_order_relaxed);
  // The displaced entry is retired, not freed: a concurrent reader that
  // already holds its pointer keeps a valid object until the cache dies.
  Buckets[Slot].store(E.get(), std::memory_order_release);
  Retired.push_back(std::move(E));
  Insertions.fetch_add(1, std::memory_order_relaxed);
}

QueryCache::Stats QueryCache::stats() const {
  Stats S;
  S.Hits = Hits.load(std::memory_order_relaxed);
  S.Misses = Misses.load(std::memory_order_relaxed);
  S.Insertions = Insertions.load(std::memory_order_relaxed);
  S.Evictions = Evictions.load(std::memory_order_relaxed);
  S.Retired = RetiredCount.load(std::memory_order_relaxed);
  return S;
}

//===----------------------------------------------------------------------===//
// QueryEngine
//===----------------------------------------------------------------------===//

QueryEngine::QueryEngine(std::shared_ptr<const SnapshotData> Data,
                         size_t CacheCapacity)
    : Data(std::move(Data)),
      Rendered(std::make_unique<RenderedSet[]>(this->Data->PtsSets.size())),
      Cache(CacheCapacity) {
  const SnapshotData &D = *this->Data;
  VarByKey.reserve(D.Vars.size());
  for (uint32_t V = 0; V < D.Vars.size(); ++V)
    VarByKey.emplace(D.varKey(V), V);
  MethodBySig.reserve(D.Methods.size());
  for (uint32_t M = 0; M < D.Methods.size(); ++M)
    MethodBySig.emplace(D.Methods[M].Signature, M);
  for (const SnapshotData::Site &S : D.Sites) {
    if (S.Callees.empty())
      continue;
    auto &Callees = CalleesByMethod[S.Enclosing];
    Callees.insert(Callees.end(), S.Callees.begin(), S.Callees.end());
    for (uint32_t Callee : S.Callees)
      CallersByMethod[Callee].push_back(S.Enclosing);
  }
  for (auto *Index : {&CalleesByMethod, &CallersByMethod})
    for (auto &[M, Ms] : *Index) {
      std::sort(Ms.begin(), Ms.end());
      Ms.erase(std::unique(Ms.begin(), Ms.end()), Ms.end());
    }
}

QueryResult QueryEngine::run(std::string_view QueryText) const {
  Query Q;
  std::string Err;
  if (!parseQuery(QueryText, Q, Err)) {
    QueryResult R;
    R.Error = Err;
    return R;
  }
  // Introspection reads live counters: caching it would freeze them, and
  // its latency would pollute the data-query histograms.
  if (Q.Kind == QueryKind::Stats)
    return statsResult();
  auto T0 = std::chrono::steady_clock::now();
  // Canonical cache key: whitespace variants of the same query share one
  // entry; \x1f cannot occur inside entity keys.
  std::string Key;
  Key.push_back(static_cast<char>('0' + static_cast<uint8_t>(Q.Kind)));
  Key.push_back('\x1f');
  Key += Q.A;
  Key.push_back('\x1f');
  Key += Q.B;
  const QueryResult *Hit = Cache.lookup(Key);
  QueryResult R;
  if (Hit) {
    R = *Hit;
  } else {
    R = evaluate(Q);
    // Only successful answers are worth a slot: unknown-entity errors
    // have an unbounded key space an adversarial stream could fill the
    // cache (and its retire store) with.
    if (R.Ok)
      Cache.insert(Key, R);
  }
  KindLatencyNs[static_cast<unsigned>(Q.Kind)].record(
      static_cast<uint64_t>(std::chrono::duration_cast<
                                std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - T0)
                                .count()));
  return R;
}

QueryResult QueryEngine::evaluate(const Query &Q) const {
  switch (Q.Kind) {
  case QueryKind::PointsTo:
    return pointsTo(Q.A);
  case QueryKind::Alias:
    return alias(Q.A, Q.B);
  case QueryKind::Devirt:
    return devirt(Q.A);
  case QueryKind::CastMayFail:
    return castMayFail(Q.A);
  case QueryKind::Callers:
    return callersOf(Q.A);
  case QueryKind::Callees:
    return calleesOf(Q.A);
  case QueryKind::Stats:
    return statsResult();
  }
  QueryResult R;
  R.Error = "unreachable query kind";
  return R;
}

QueryResult QueryEngine::statsResult() const {
  // Build a throwaway registry so the answer reuses the one exposition
  // format (Prometheus text lines, one per Items entry) everything else
  // in the pipeline speaks.
  obs::MetricsRegistry Reg;
  QueryCache::Stats CS = Cache.stats();
  Reg.counter("serve.cache_hits").set(CS.Hits);
  Reg.counter("serve.cache_misses").set(CS.Misses);
  Reg.counter("serve.cache_insertions").set(CS.Insertions);
  Reg.counter("serve.cache_evictions").set(CS.Evictions);
  Reg.counter("serve.cache_retired").set(CS.Retired);
  for (unsigned K = 0; K < NumDataQueryKinds; ++K) {
    const LogHistogram &H = KindLatencyNs[K];
    if (H.count() == 0)
      continue;
    Reg.histogram(std::string("serve.latency_ns.") +
                  queryKindName(static_cast<QueryKind>(K)))
        .mergeFrom(H);
  }
  auto Items = std::make_shared<QueryResult::ItemList>();
  std::istringstream Lines(Reg.toPrometheus());
  for (std::string Line; std::getline(Lines, Line);)
    if (!Line.empty())
      Items->push_back(Line);
  QueryResult R;
  R.Ok = true;
  R.setItems(std::move(Items));
  return R;
}

bool QueryEngine::lookupVar(const std::string &VarKey, uint32_t &V,
                            std::string &Err) const {
  auto It = VarByKey.find(VarKey);
  if (It == VarByKey.end()) {
    Err = "unknown variable '" + VarKey + "' (expected MethodSig::name)";
    return false;
  }
  V = It->second;
  return true;
}

/// Parses a decimal site/cast index bounded by \p Limit.
static bool parseIndex(const std::string &Text, size_t Limit, uint32_t &Out,
                       const char *What, std::string &Err) {
  uint64_t V = 0;
  if (Text.empty()) {
    Err = std::string("empty ") + What + " index";
    return false;
  }
  for (char C : Text) {
    if (!std::isdigit(static_cast<unsigned char>(C))) {
      Err = std::string("malformed ") + What + " index '" + Text + "'";
      return false;
    }
    V = V * 10 + (C - '0');
    if (V > 0xFFFFFFFFull)
      break;
  }
  if (V >= Limit) {
    Err = std::string(What) + " index " + Text + " out of range (0.." +
          std::to_string(Limit ? Limit - 1 : 0) + ")";
    return false;
  }
  Out = static_cast<uint32_t>(V);
  return true;
}

std::shared_ptr<const QueryResult::ItemList>
QueryEngine::renderedSet(uint32_t S) const {
  RenderedSet &Slot = Rendered[S];
  std::call_once(Slot.Once, [&] {
    auto Items = std::make_shared<QueryResult::ItemList>();
    Items->reserve(Data->PtsSets[S].size());
    for (uint32_t O : Data->PtsSets[S])
      Items->push_back(Data->describeObj(O));
    Slot.Items = std::move(Items);
  });
  return Slot.Items;
}

QueryResult QueryEngine::pointsTo(const std::string &VarKey) const {
  QueryResult R;
  uint32_t V;
  if (!lookupVar(VarKey, V, R.Error))
    return R;
  R.Ok = true;
  R.setItems(renderedSet(Data->Vars[V].PtsSet));
  return R;
}

QueryResult QueryEngine::alias(const std::string &KeyA,
                               const std::string &KeyB) const {
  QueryResult R;
  uint32_t VA, VB;
  if (!lookupVar(KeyA, VA, R.Error) || !lookupVar(KeyB, VB, R.Error))
    return R;
  const std::vector<uint32_t> &A = Data->ptsOfVar(VA);
  const std::vector<uint32_t> &B = Data->ptsOfVar(VB);
  R.Ok = true;
  R.HasVerdict = true;
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I] < B[J])
      ++I;
    else if (B[J] < A[I])
      ++J;
    else {
      // Object 0 is the reserved o_null: both being null is not aliasing.
      if (A[I] != 0) {
        R.Verdict = true;
        break;
      }
      ++I;
      ++J;
    }
  }
  return R;
}

std::shared_ptr<const QueryResult::ItemList>
QueryEngine::sortedSignatures(const std::vector<uint32_t> &Methods) const {
  auto Items = std::make_shared<QueryResult::ItemList>();
  Items->reserve(Methods.size());
  for (uint32_t M : Methods)
    Items->push_back(Data->Methods[M].Signature);
  std::sort(Items->begin(), Items->end());
  return Items;
}

QueryResult QueryEngine::devirt(const std::string &SiteIdx) const {
  QueryResult R;
  uint32_t S;
  if (!parseIndex(SiteIdx, Data->Sites.size(), S, "call-site", R.Error))
    return R;
  R.Ok = true;
  R.setItems(sortedSignatures(Data->Sites[S].Callees));
  return R;
}

QueryResult QueryEngine::castMayFail(const std::string &CastIdx) const {
  QueryResult R;
  uint32_t C;
  if (!parseIndex(CastIdx, Data->Casts.size(), C, "cast-site", R.Error))
    return R;
  const SnapshotData::Cast &Cast = Data->Casts[C];
  R.Ok = true;
  R.HasVerdict = true;
  for (uint32_t O : Data->ptsOfVar(Cast.From)) {
    uint32_t T = Data->Objs[O].Type;
    if (Data->Types[T].Kind == static_cast<uint8_t>(ir::TypeKind::Null))
      continue; // casting null always succeeds
    if (!Data->isSubtype(T, Cast.Target)) {
      R.Verdict = true;
      break;
    }
  }
  return R;
}

QueryResult QueryEngine::callersOf(const std::string &Sig) const {
  QueryResult R;
  auto It = MethodBySig.find(Sig);
  if (It == MethodBySig.end()) {
    R.Error = "unknown method '" + Sig + "'";
    return R;
  }
  R.Ok = true;
  if (auto Found = CallersByMethod.find(It->second);
      Found != CallersByMethod.end())
    R.setItems(sortedSignatures(Found->second));
  return R;
}

QueryResult QueryEngine::calleesOf(const std::string &Sig) const {
  QueryResult R;
  auto It = MethodBySig.find(Sig);
  if (It == MethodBySig.end()) {
    R.Error = "unknown method '" + Sig + "'";
    return R;
  }
  R.Ok = true;
  if (auto Found = CalleesByMethod.find(It->second);
      Found != CalleesByMethod.end())
    R.setItems(sortedSignatures(Found->second));
  return R;
}
