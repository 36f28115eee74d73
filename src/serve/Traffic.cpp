//===-- serve/Traffic.cpp - Workload spec and query generator ----------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Traffic.h"

#include "support/Hashing.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

using namespace mahjong;
using namespace mahjong::serve;

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

namespace {

std::string_view trim(std::string_view S) {
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.front())))
    S.remove_prefix(1);
  while (!S.empty() && std::isspace(static_cast<unsigned char>(S.back())))
    S.remove_suffix(1);
  return S;
}

bool parseUnsigned(std::string_view V, uint64_t &Out) {
  if (V.empty())
    return false;
  uint64_t R = 0;
  for (char C : V) {
    if (!std::isdigit(static_cast<unsigned char>(C)))
      return false;
    R = R * 10 + (C - '0');
  }
  Out = R;
  return true;
}

bool parseDouble(std::string_view V, double &Out) {
  std::string S(V);
  char *End = nullptr;
  Out = std::strtod(S.c_str(), &End);
  return End && *End == '\0' && End != S.c_str() && Out >= 0;
}

} // namespace

bool mahjong::serve::parseWorkloadSpec(std::string_view Text,
                                       QueryWorkload &W, std::string &Err) {
  std::istringstream In{std::string(Text)};
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    std::string_view L = trim(Line);
    if (auto Hash = L.find('#'); Hash != std::string_view::npos)
      L = trim(L.substr(0, Hash));
    if (L.empty())
      continue;
    auto Eq = L.find('=');
    if (Eq == std::string_view::npos) {
      Err = "spec line " + std::to_string(LineNo) + ": expected key = value";
      return false;
    }
    std::string Key(trim(L.substr(0, Eq)));
    std::string_view Value = trim(L.substr(Eq + 1));

    auto Fail = [&](const char *Why) {
      Err = "spec line " + std::to_string(LineNo) + ": " + Why + " for '" +
            Key + "'";
      return false;
    };
    uint64_t U;
    double F;
    if (Key == "clients") {
      if (!parseUnsigned(Value, U) || U == 0)
        return Fail("need a positive integer");
      W.Clients = static_cast<unsigned>(U);
    } else if (Key == "queries_per_client") {
      if (!parseUnsigned(Value, U) || U == 0)
        return Fail("need a positive integer");
      W.QueriesPerClient = U;
    } else if (Key == "duration_seconds") {
      if (!parseDouble(Value, F))
        return Fail("need a non-negative number");
      W.DurationSeconds = F;
    } else if (Key == "seed") {
      if (!parseUnsigned(Value, U))
        return Fail("need an integer");
      W.Seed = U;
    } else if (Key == "zipf_s") {
      if (!parseDouble(Value, F))
        return Fail("need a non-negative number");
      W.ZipfS = F;
    } else if (Key == "heartbeat_seconds") {
      if (!parseDouble(Value, F))
        return Fail("need a non-negative number");
      W.HeartbeatSeconds = F;
    } else if (Key == "churn_every") {
      if (!parseUnsigned(Value, U))
        return Fail("need an integer");
      W.ChurnEvery = U;
    } else if (Key == "ramp_seconds") {
      if (!parseDouble(Value, F))
        return Fail("need a non-negative number");
      W.RampSeconds = F;
    } else if (Key == "slow_query_us") {
      if (!parseUnsigned(Value, U))
        return Fail("need an integer");
      W.SlowQueryMicros = U;
    } else if (Key.rfind("weight_", 0) == 0) {
      if (!parseUnsigned(Value, U))
        return Fail("need an integer");
      unsigned V = static_cast<unsigned>(U);
      if (Key == "weight_points_to")
        W.WeightPointsTo = V;
      else if (Key == "weight_alias")
        W.WeightAlias = V;
      else if (Key == "weight_devirt")
        W.WeightDevirt = V;
      else if (Key == "weight_cast_may_fail")
        W.WeightCastMayFail = V;
      else if (Key == "weight_callers")
        W.WeightCallers = V;
      else if (Key == "weight_callees")
        W.WeightCallees = V;
      else {
        Err = "spec line " + std::to_string(LineNo) + ": unknown key '" +
              Key + "'";
        return false;
      }
    } else {
      Err = "spec line " + std::to_string(LineNo) + ": unknown key '" + Key +
            "'";
      return false;
    }
  }
  if (W.WeightPointsTo + W.WeightAlias + W.WeightDevirt +
          W.WeightCastMayFail + W.WeightCallers + W.WeightCallees ==
      0) {
    Err = "all query-mix weights are zero";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Query generation
//===----------------------------------------------------------------------===//

QueryGenerator::QueryGenerator(const SnapshotData &D, const QueryWorkload &W,
                               unsigned Client)
    : D(D), W(W), RngState(splitmix64(W.Seed) ^ splitmix64(Client + 1)) {
  TotalWeight = W.WeightPointsTo + W.WeightAlias + W.WeightDevirt +
                W.WeightCastMayFail + W.WeightCallers + W.WeightCallees;
  if (W.ZipfS > 0) {
    // Unnormalized cumulative Zipf weights up to the largest key pool;
    // sampling over a smaller pool of size N uses the prefix [0, N).
    size_t MaxPool = std::max({D.Vars.size(), D.Sites.size(),
                               D.Casts.size(), D.Methods.size()});
    ZipfCdf.reserve(MaxPool);
    double Sum = 0;
    for (size_t I = 0; I < MaxPool; ++I) {
      Sum += 1.0 / std::pow(static_cast<double>(I + 1), W.ZipfS);
      ZipfCdf.push_back(Sum);
    }
  }
}

uint64_t QueryGenerator::nextRand() {
  RngState = splitmix64(RngState);
  return RngState;
}

size_t QueryGenerator::pickRank(size_t N) {
  if (N == 0)
    return 0;
  uint64_t R = nextRand();
  if (ZipfCdf.empty())
    return R % N;
  double U = (R >> 11) * (1.0 / 9007199254740992.0) * ZipfCdf[N - 1];
  auto It = std::upper_bound(ZipfCdf.begin(), ZipfCdf.begin() + N, U);
  return std::min<size_t>(It - ZipfCdf.begin(), N - 1);
}

std::string QueryGenerator::next(QueryKind *KindOut) {
  unsigned Pick = static_cast<unsigned>(nextRand() % TotalWeight);
  auto Emit = [KindOut](QueryKind K, std::string Text) {
    if (KindOut)
      *KindOut = K;
    return Text;
  };
  // On a snapshot with no variables at all (an empty program) there is
  // no valid key of any kind; emit a fixed parse-valid query that the
  // engine answers as unknown-variable rather than indexing Vars[0].
  auto VarKey = [this]() -> std::string {
    if (D.Vars.empty())
      return "<no-method>::<no-var>";
    return D.varKey(pickRank(D.Vars.size()));
  };
  // Fall through the mix in declaration order; kinds whose key pool is
  // empty degrade to points-to so the stream never stalls.
  if (Pick < W.WeightPointsTo)
    return Emit(QueryKind::PointsTo, "points-to " + VarKey());
  Pick -= W.WeightPointsTo;
  if (Pick < W.WeightAlias)
    return Emit(QueryKind::Alias, "alias " + VarKey() + " " + VarKey());
  Pick -= W.WeightAlias;
  if (Pick < W.WeightDevirt) {
    if (D.Sites.empty())
      return Emit(QueryKind::PointsTo, "points-to " + VarKey());
    return Emit(QueryKind::Devirt,
                "devirt " + std::to_string(pickRank(D.Sites.size())));
  }
  Pick -= W.WeightDevirt;
  if (Pick < W.WeightCastMayFail) {
    if (D.Casts.empty())
      return Emit(QueryKind::PointsTo, "points-to " + VarKey());
    return Emit(QueryKind::CastMayFail,
                "cast-may-fail " +
                    std::to_string(pickRank(D.Casts.size())));
  }
  Pick -= W.WeightCastMayFail;
  if (D.Methods.empty())
    return Emit(QueryKind::PointsTo, "points-to " + VarKey());
  const std::string &Sig =
      D.Methods[pickRank(D.Methods.size())].Signature;
  if (Pick < W.WeightCallers)
    return Emit(QueryKind::Callers, "callers " + Sig);
  return Emit(QueryKind::Callees, "callees " + Sig);
}
