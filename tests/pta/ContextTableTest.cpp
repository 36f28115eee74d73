//===-- tests/pta/ContextTableTest.cpp ---------------------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pta/Context.h"

#include "pta/CSManager.h"

#include <gtest/gtest.h>

#include <map>
#include <random>

using namespace mahjong;
using namespace mahjong::pta;

namespace {

/// The reference: contexts as whole element vectors interned in a map,
/// ids handed out in first-seen order. The trie must agree with it on
/// every id, size() and elems().
class VectorContextTable {
public:
  VectorContextTable() { intern({}); }

  uint32_t push(uint32_t Base, CtxElem Elem, unsigned Limit) {
    if (Limit == 0)
      return 0;
    std::vector<CtxElem> Elems = Values[Base];
    Elems.push_back(Elem);
    if (Elems.size() > Limit)
      Elems.erase(Elems.begin(), Elems.end() - Limit);
    return intern(Elems);
  }

  uint32_t truncate(uint32_t C, unsigned Limit) {
    const std::vector<CtxElem> &Elems = Values[C];
    if (Elems.size() <= Limit)
      return C;
    return intern(std::vector<CtxElem>(Elems.end() - Limit, Elems.end()));
  }

  const std::vector<CtxElem> &elems(uint32_t C) const { return Values[C]; }
  uint32_t size() const { return static_cast<uint32_t>(Values.size()); }

private:
  uint32_t intern(const std::vector<CtxElem> &Elems) {
    auto [It, Inserted] =
        Ids.try_emplace(Elems, static_cast<uint32_t>(Values.size()));
    if (Inserted)
      Values.push_back(Elems);
    return It->second;
  }

  std::map<std::vector<CtxElem>, uint32_t> Ids;
  std::vector<std::vector<CtxElem>> Values;
};

} // namespace

TEST(ContextTable, EmptyContextIsIdZero) {
  ContextTable T;
  EXPECT_EQ(T.empty().idx(), 0u);
  EXPECT_TRUE(T.elems(T.empty()).empty());
  EXPECT_EQ(T.size(), 1u);
}

TEST(ContextTable, PushAppendsAndInterns) {
  ContextTable T;
  ContextId A = T.push(T.empty(), 7, 3);
  EXPECT_EQ(T.elems(A), (std::vector<CtxElem>{7}));
  ContextId B = T.push(A, 9, 3);
  EXPECT_EQ(T.elems(B), (std::vector<CtxElem>{7, 9}));
  EXPECT_EQ(T.push(T.empty(), 7, 3), A) << "identical contexts intern";
  EXPECT_EQ(T.size(), 3u);
}

TEST(ContextTable, PushKeepsMostRecentK) {
  ContextTable T;
  ContextId C = T.empty();
  for (CtxElem E : {1u, 2u, 3u, 4u})
    C = T.push(C, E, 2);
  EXPECT_EQ(T.elems(C), (std::vector<CtxElem>{3, 4}));
}

TEST(ContextTable, PushWithZeroLimitStaysEmpty) {
  ContextTable T;
  EXPECT_EQ(T.push(T.empty(), 42, 0), T.empty());
}

TEST(ContextTable, TruncateKeepsSuffix) {
  ContextTable T;
  ContextId C = T.empty();
  for (CtxElem E : {1u, 2u, 3u})
    C = T.push(C, E, 8);
  EXPECT_EQ(T.elems(T.truncate(C, 2)), (std::vector<CtxElem>{2, 3}));
  EXPECT_EQ(T.truncate(C, 3), C) << "no-op when already short enough";
  EXPECT_EQ(T.truncate(C, 0), T.empty());
}

TEST(ContextTable, TrieMatchesVectorInternerOnRandomSequences) {
  // Seeded random push/truncate sequences for every K from 0 to 4, over
  // a small element pool (so contexts recur) that includes 0 and
  // 0xFFFFFFFE. Pushes mostly use K, as the selectors do, and sometimes
  // another limit; truncates use any limit up to K, so walks that pass
  // through trie nodes which are not (yet) contexts are common.
  const CtxElem Pool[] = {0u, 1u, 2u, 3u, 0x7FFFFFFFu, 0xFFFFFFFEu};
  for (unsigned Seed = 1; Seed <= 8; ++Seed) {
    for (unsigned K = 0; K <= 4; ++K) {
      std::mt19937 Rng(Seed * 31 + K);
      ContextTable T;
      VectorContextTable Ref;
      for (int Step = 0; Step < 2000; ++Step) {
        uint32_t C = Rng() % Ref.size();
        uint32_t Got, Want;
        if (Rng() % 3 != 0) {
          CtxElem E = Pool[Rng() % std::size(Pool)];
          unsigned Limit = Rng() % 4 == 0 ? Rng() % 5 : K;
          Got = T.push(ContextId(C), E, Limit).idx();
          Want = Ref.push(C, E, Limit);
        } else {
          unsigned Limit = Rng() % (K + 1);
          Got = T.truncate(ContextId(C), Limit).idx();
          Want = Ref.truncate(C, Limit);
        }
        ASSERT_EQ(Got, Want) << "seed " << Seed << " K " << K << " step "
                             << Step;
        ASSERT_EQ(T.size(), Ref.size()) << "seed " << Seed << " K " << K
                                        << " step " << Step;
        ASSERT_EQ(T.elems(ContextId(Got)), Ref.elems(Want))
            << "seed " << Seed << " K " << K << " step " << Step;
      }
      for (uint32_t C = 0; C < Ref.size(); ++C)
        ASSERT_EQ(T.elems(ContextId(C)), Ref.elems(C))
            << "seed " << Seed << " K " << K << " context " << C;
    }
  }
}

TEST(CSManager, InternsAndDecodesPairs) {
  CSManager M;
  CSVarId V1 = M.csVar(ContextId(3), VarId(5));
  CSVarId V2 = M.csVar(ContextId(3), VarId(5));
  CSVarId V3 = M.csVar(ContextId(4), VarId(5));
  EXPECT_EQ(V1, V2);
  EXPECT_NE(V1, V3);
  auto [C, V] = M.varOf(V1);
  EXPECT_EQ(C, ContextId(3));
  EXPECT_EQ(V, VarId(5));
  EXPECT_EQ(M.numCSVars(), 2u);
}

TEST(CSManager, LookupNeverInterns) {
  CSManager M;
  EXPECT_FALSE(M.lookupCSVar(ContextId(0), VarId(1)).isValid());
  EXPECT_EQ(M.numCSVars(), 0u);
  M.csVar(ContextId(0), VarId(1));
  EXPECT_TRUE(M.lookupCSVar(ContextId(0), VarId(1)).isValid());
}

TEST(CSManager, ObjectAndMethodSpacesAreIndependent) {
  CSManager M;
  CSObjId O = M.csObj(ContextId(0), ObjId(9));
  CSMethodId F = M.csMethod(ContextId(0), MethodId(9));
  EXPECT_EQ(O.idx(), 0u);
  EXPECT_EQ(F.idx(), 0u) << "separate dense id spaces";
  auto [CO, Obj] = M.objOf(O);
  EXPECT_EQ(Obj, ObjId(9));
  auto [CM, Mth] = M.methodOf(F);
  EXPECT_EQ(Mth, MethodId(9));
}
