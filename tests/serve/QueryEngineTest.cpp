//===-- tests/serve/QueryEngineTest.cpp --------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Semantics of the six query kinds against a program whose ground truth
// is known by hand, plus the parse/error surface, the cache observable
// behavior (hits, eviction under a tiny capacity, correctness after
// eviction) and the sharing of answers (a hit, and every variable with
// the same points-to set, reuse one rendering that outlives the engine).
//
//===----------------------------------------------------------------------===//

#include "serve/QueryEngine.h"

#include "../TestUtil.h"

#include <gtest/gtest.h>

using namespace mahjong;
using namespace mahjong::serve;
using namespace mahjong::test;

namespace {

std::shared_ptr<const SnapshotData> snapshotOf(const pta::PTAResult &R) {
  return std::make_shared<SnapshotData>(buildSnapshot(R));
}

/// The fixture program. Allocation order: o1 = new A, o2 = new B; x sees
/// both, so the call through x is polymorphic and the (B) cast may fail.
Analyzed fixture() {
  return analyze(R"(
    class A {
      method m(p) { return p; }
    }
    class B extends A {
      method m(p) { return this; }
    }
    class Main {
      static method main() {
        a = new A;
        b = new B;
        x = a;
        x = b;
        r = x.m(b);
        c = (B) x;
        d = (A) b;
        n = null;
      }
    }
  )");
}

} // namespace

TEST(QueryEngine, PointsTo) {
  Analyzed A = fixture();
  QueryEngine E(snapshotOf(*A.R));
  QueryResult R = E.run("points-to Main.main/0::x");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.items(), (std::vector<std::string>{"o1<A>@Main.main/0",
                                               "o2<B>@Main.main/0"}));

  R = E.run("points-to Main.main/0::n");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.items(), (std::vector<std::string>{"o0<null>"}));
}

TEST(QueryEngine, Alias) {
  Analyzed A = fixture();
  QueryEngine E(snapshotOf(*A.R));

  QueryResult R = E.run("alias Main.main/0::a Main.main/0::x");
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.HasVerdict);
  EXPECT_TRUE(R.Verdict);

  R = E.run("alias Main.main/0::a Main.main/0::b");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.Verdict);

  // Sharing only o_null is not aliasing.
  R = E.run("alias Main.main/0::n Main.main/0::n");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.Verdict);
}

TEST(QueryEngine, Devirt) {
  Analyzed A = fixture();
  QueryEngine E(snapshotOf(*A.R));
  // Site 0 is r = x.m(b): x may hold an A or a B, so both overrides.
  QueryResult R = E.run("devirt 0");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.items(), (std::vector<std::string>{"A.m/1", "B.m/1"}));
}

TEST(QueryEngine, CastMayFail) {
  Analyzed A = fixture();
  QueryEngine E(snapshotOf(*A.R));
  // Cast 0 is c = (B) x: x may hold the A object.
  QueryResult R = E.run("cast-may-fail 0");
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_TRUE(R.HasVerdict);
  EXPECT_TRUE(R.Verdict);
  // Cast 1 is d = (A) b: an upcast, can never fail.
  R = E.run("cast-may-fail 1");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_FALSE(R.Verdict);
}

TEST(QueryEngine, CallersCallees) {
  Analyzed A = fixture();
  QueryEngine E(snapshotOf(*A.R));
  QueryResult R = E.run("callees Main.main/0");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.items(), (std::vector<std::string>{"A.m/1", "B.m/1"}));

  R = E.run("callers A.m/1");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.items(), (std::vector<std::string>{"Main.main/0"}));

  R = E.run("callers Main.main/0");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.items().empty());
}

TEST(QueryEngine, ErrorsAreReportedNotThrown) {
  Analyzed A = fixture();
  QueryEngine E(snapshotOf(*A.R));

  // Malformed query text never enters the cache...
  EXPECT_FALSE(E.run("").Ok);
  EXPECT_FALSE(E.run("frobnicate x").Ok);
  EXPECT_FALSE(E.run("points-to").Ok);
  EXPECT_FALSE(E.run("alias Main.main/0::a").Ok);
  EXPECT_EQ(E.cacheStats().Insertions, 0u);

  // ...and neither do well-formed queries over missing entities: their
  // key space is unbounded, so an adversarial stream of unknown names
  // must not grow the cache.
  EXPECT_FALSE(E.run("points-to NoSuch.method/0::v").Ok);
  EXPECT_FALSE(E.run("devirt 99999").Ok);
  EXPECT_FALSE(E.run("devirt notanumber").Ok);
  EXPECT_FALSE(E.run("cast-may-fail -1").Ok);
  EXPECT_FALSE(E.run("callers NoSuch.method/9").Ok);
  EXPECT_EQ(E.cacheStats().Insertions, 0u);
}

TEST(QueryEngine, ParseWhitespaceVariantsGiveTheSameTokens) {
  // Tokens split on the C locale's six whitespace characters, in any
  // run and at either end.
  for (std::string_view Text :
       {"alias a b", "alias\ta\tb", "alias\na\nb", "alias   a \t\n b",
        "  alias a b  ", "alias a b\n", "\t alias a b \t", "alias\va\fb\r"}) {
    Query Q;
    std::string Err;
    ASSERT_TRUE(parseQuery(Text, Q, Err)) << Err;
    EXPECT_EQ(Q.Kind, QueryKind::Alias);
    EXPECT_EQ(Q.A, "a");
    EXPECT_EQ(Q.B, "b");
  }
  Query Q;
  std::string Err;
  ASSERT_TRUE(parseQuery("\tpoints-to\n\nMain.main/0::x \t", Q, Err));
  EXPECT_EQ(Q.Kind, QueryKind::PointsTo);
  EXPECT_EQ(Q.A, "Main.main/0::x");
  EXPECT_EQ(Q.B, "");
  ASSERT_TRUE(parseQuery("stats \n", Q, Err));
  EXPECT_EQ(Q.Kind, QueryKind::Stats);
  EXPECT_EQ(Q.A, "");
}

TEST(QueryEngine, ParseWhitespaceVariantsGiveTheSameErrors) {
  auto ErrorOf = [](std::string_view Text) {
    Query Q;
    std::string Err;
    EXPECT_FALSE(parseQuery(Text, Q, Err)) << Text;
    return Err;
  };
  EXPECT_EQ(ErrorOf(""), "empty query");
  EXPECT_EQ(ErrorOf(" \t\n\v\f\r "), "empty query");
  EXPECT_EQ(ErrorOf("alias\t\ta "), "'alias' expects 2 argument(s), got 1");
  EXPECT_EQ(ErrorOf("points-to\n"), "'points-to' expects 1 argument(s), got 0");
  EXPECT_EQ(ErrorOf("stats x"), "'stats' expects 0 argument(s), got 1");
  EXPECT_EQ(ErrorOf("  points-to a\tb  c\nd "),
            "'points-to' expects 1 argument(s), got 4");
  EXPECT_EQ(ErrorOf("\tfrobnicate  x\n"),
            "unknown query verb 'frobnicate' (expected points-to, alias, "
            "devirt, cast-may-fail, callers, callees or stats)");
  // Only whole tokens match a verb.
  EXPECT_EQ(ErrorOf("points-tox a"),
            "unknown query verb 'points-tox' (expected points-to, alias, "
            "devirt, cast-may-fail, callers, callees or stats)");
}

TEST(QueryCacheTest, RetiredMemoryIsBounded) {
  // Retired entries are the cache's whole allocation footprint; a stream
  // of endlessly distinct keys must stop allocating at the cap instead
  // of growing without bound (misses then evaluate uncached).
  QueryCache C(/*Capacity=*/8);
  QueryResult R;
  R.Ok = true;
  R.setItems(std::make_shared<const QueryResult::ItemList>(
      QueryResult::ItemList{"answer"}));
  const int Distinct = 100000;
  for (int I = 0; I < Distinct; ++I)
    C.insert("key" + std::to_string(I), R);
  QueryCache::Stats S = C.stats();
  ASSERT_LT(S.Insertions, static_cast<uint64_t>(Distinct));
  // Entries published before the cap was hit are still served: every
  // live entry's key is among the first Insertions keys.
  const QueryResult *Hit = nullptr;
  for (uint64_t I = 0; I < S.Insertions && !Hit; ++I)
    Hit = C.lookup("key" + std::to_string(I));
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->items(), R.items());
}

TEST(QueryEngine, CacheHitsRepeatQueries) {
  Analyzed A = fixture();
  QueryEngine E(snapshotOf(*A.R));
  QueryResult First = E.run("points-to Main.main/0::x");
  QueryResult Second = E.run("points-to Main.main/0::x");
  EXPECT_EQ(First.items(), Second.items());
  QueryCache::Stats S = E.cacheStats();
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_GE(S.Hits, 1u);
}

TEST(QueryEngine, CacheStaysCorrectUnderEviction) {
  Analyzed A = fixture();
  // A deliberately tiny cache so distinct queries fight for slots.
  QueryEngine E(snapshotOf(*A.R), /*CacheCapacity=*/8);
  const SnapshotData &D = E.data();
  for (int Round = 0; Round < 3; ++Round) {
    for (uint32_t V = 0; V < D.Vars.size(); ++V) {
      QueryResult R = E.run("points-to " + D.varKey(V));
      ASSERT_TRUE(R.Ok) << R.Error;
      // Cached or freshly evaluated, the answer must match evaluate().
      Query Q;
      std::string Err;
      ASSERT_TRUE(parseQuery("points-to " + D.varKey(V), Q, Err)) << Err;
      EXPECT_EQ(R.items(), E.evaluate(Q).items()) << D.varKey(V);
    }
  }
  EXPECT_GT(E.cacheStats().Evictions, 0u);
}

TEST(QueryEngine, HitSharesItsMissStorage) {
  Analyzed A = fixture();
  QueryEngine E(snapshotOf(*A.R));
  QueryResult Miss = E.run("points-to Main.main/0::x");
  QueryResult Hit = E.run("points-to  Main.main/0::x");
  ASSERT_EQ(E.cacheStats().Hits, 1u);
  EXPECT_EQ(&Hit.items(), &Miss.items()) << "a hit must not copy the items";
  QueryResult Copy = Hit;
  EXPECT_EQ(&Copy.items(), &Miss.items());
  // The same holds for the method-list kinds.
  EXPECT_EQ(&E.run("devirt 0").items(), &E.run("devirt 0").items());
}

TEST(QueryEngine, VariablesWithOneSetShareOneRendering) {
  Analyzed A = fixture();
  QueryEngine E(snapshotOf(*A.R));
  const SnapshotData &D = E.data();
  // Find two variables whose points-to set is the same non-empty dedup
  // table entry (c = (B) x and b both see only the B object).
  uint32_t First = UINT32_MAX, Second = UINT32_MAX;
  for (uint32_t V = 0; V < D.Vars.size() && Second == UINT32_MAX; ++V)
    for (uint32_t U = 0; U < V; ++U)
      if (D.Vars[U].PtsSet == D.Vars[V].PtsSet && !D.ptsOfVar(V).empty()) {
        First = U;
        Second = V;
        break;
      }
  ASSERT_NE(Second, UINT32_MAX) << "fixture must have two equal sets";
  QueryResult R1 = E.run("points-to " + D.varKey(First));
  QueryResult R2 = E.run("points-to " + D.varKey(Second));
  ASSERT_TRUE(R1.Ok && R2.Ok);
  EXPECT_EQ(E.cacheStats().Hits, 0u) << "two keys, two misses";
  EXPECT_EQ(&R1.items(), &R2.items()) << "one rendering per set";
  EXPECT_EQ(R1.items().size(), D.ptsOfVar(First).size());
}

TEST(QueryEngine, ResultOutlivesItsEngine) {
  Analyzed A = fixture();
  QueryResult PointsTo, Callees, Stats;
  {
    QueryEngine E(snapshotOf(*A.R));
    PointsTo = E.run("points-to Main.main/0::x");
    Callees = E.run("callees Main.main/0");
    Stats = E.run("stats");
  } // the engine, its cache and its renderings are gone
  EXPECT_EQ(PointsTo.items(), (std::vector<std::string>{"o1<A>@Main.main/0",
                                                        "o2<B>@Main.main/0"}));
  EXPECT_EQ(Callees.toString(), "[A.m/1, B.m/1]");
  EXPECT_FALSE(Stats.items().empty());
}

TEST(QueryEngine, ResultToString) {
  Analyzed A = fixture();
  QueryEngine E(snapshotOf(*A.R));
  EXPECT_EQ(E.run("cast-may-fail 0").toString(), "true");
  EXPECT_EQ(E.run("cast-may-fail 1").toString(), "false");
  EXPECT_EQ(E.run("devirt 0").toString(), "[A.m/1, B.m/1]");
}
