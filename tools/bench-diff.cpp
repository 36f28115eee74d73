//===-- tools/bench-diff.cpp - Bench regression gate -------------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
// Diffs two bench report JSON files (BENCH_solver.json,
// BENCH_auto_solver.json, serve-bench reports, bench_obs_overhead
// output) and exits nonzero when the candidate regressed past per-metric
// tolerances. This is the CI gate that turns the checked-in bench
// trajectory from decorative into enforced.
//
// Metrics are classified by key name, not by a per-file schema, so the
// tool works across every report shape the repo emits:
//
//   lower-is-better   *seconds*, *_us, *_ns, *bytes* — times and
//                     footprints; regression = candidate exceeds
//                     baseline by more than the class tolerance AND an
//                     absolute floor (so microsecond noise on tiny
//                     values never trips the gate)
//   higher-is-better  *qps*, *speedup* — throughput; regression =
//                     candidate falls short of baseline by more than
//                     the tolerance
//   must-stay-true    identical, *_ok, ok — correctness bits; any
//                     true -> false flip is a regression, no tolerance
//   everything else   workload descriptors (pops, counts, epochs):
//                     compared structurally but never gated
//
// Array elements are matched by their "name" field (profiles), by the
// "engine"+"rep" pair (per-run rows), or by index as a last resort, so
// reordering a report does not fabricate a diff. Keys missing from the
// candidate are warnings, not failures — reports are allowed to grow
// and shrink fields across PRs; the gate is about the numbers both
// sides share.
//
// Usage:
//   bench-diff <baseline.json> <candidate.json>
//       [--tol-time PCT]  (default 10)
//       [--tol-bytes PCT] (default 10)
//       [--tol-qps PCT]   (default 20)
//       [--list]          print every compared metric, not just failures
//
// Exit: 0 clean, 1 regression(s), 2 usage/io/parse error.
//
//===----------------------------------------------------------------------===//

#include "MiniJson.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using minijson::Parser;
using minijson::Value;

namespace {

struct Options {
  double TolTimePct = 10.0;
  double TolBytesPct = 10.0;
  double TolQpsPct = 20.0;
  bool List = false;
};

struct Stats {
  size_t Compared = 0;
  size_t Regressions = 0;
  size_t Warnings = 0;
};

enum class MetricClass { Ignored, LowerBetter, HigherBetter, MustStayTrue };

bool contains(const std::string &Key, const char *Sub) {
  return Key.find(Sub) != std::string::npos;
}

bool endsWith(const std::string &Key, const char *Suffix) {
  size_t N = std::strlen(Suffix);
  return Key.size() >= N && Key.compare(Key.size() - N, N, Suffix) == 0;
}

/// Classifies a leaf by its key; fills the tolerance (percent) and the
/// absolute floor the difference must also exceed to count.
MetricClass classify(const std::string &Key, const Options &Opts,
                     double &TolPct, double &AbsFloor) {
  if (Key == "identical" || Key == "ok" || endsWith(Key, "_ok") ||
      endsWith(Key, "_identical"))
    return MetricClass::MustStayTrue;
  if (contains(Key, "qps") || contains(Key, "speedup")) {
    TolPct = Opts.TolQpsPct;
    AbsFloor = 0;
    return MetricClass::HigherBetter;
  }
  if (contains(Key, "bytes")) {
    TolPct = Opts.TolBytesPct;
    AbsFloor = 8192; // below two pages, footprint jitter is noise
    return MetricClass::LowerBetter;
  }
  if (contains(Key, "seconds")) {
    TolPct = Opts.TolTimePct;
    AbsFloor = 0.01;
    return MetricClass::LowerBetter;
  }
  if (endsWith(Key, "_us")) {
    TolPct = Opts.TolTimePct;
    AbsFloor = 100; // 100us: scheduler noise on a busy CI box
    return MetricClass::LowerBetter;
  }
  if (endsWith(Key, "_ns")) {
    TolPct = Opts.TolTimePct;
    AbsFloor = 100000;
    return MetricClass::LowerBetter;
  }
  if (endsWith(Key, "_pct")) {
    // Overhead percentages (bench_obs_overhead): direct small numbers.
    TolPct = Opts.TolTimePct;
    AbsFloor = 0.5;
    return MetricClass::LowerBetter;
  }
  return MetricClass::Ignored;
}

void compareLeaf(const std::string &Path, const std::string &Key,
                 const Value &Base, const Value &Cand, const Options &Opts,
                 Stats &S) {
  if (Base.K == Value::Bool || Cand.K == Value::Bool) {
    if (Base.K != Cand.K) {
      std::printf("warn %s: type changed\n", Path.c_str());
      ++S.Warnings;
      return;
    }
    double TolPct, AbsFloor;
    if (classify(Key, Opts, TolPct, AbsFloor) ==
        MetricClass::MustStayTrue) {
      ++S.Compared;
      if (Base.B && !Cand.B) {
        std::printf("REGRESSION %s: true -> false\n", Path.c_str());
        ++S.Regressions;
      } else if (Opts.List) {
        std::printf("ok %s: %s -> %s\n", Path.c_str(),
                    Base.B ? "true" : "false", Cand.B ? "true" : "false");
      }
    }
    return;
  }
  if (Base.K != Value::Number || Cand.K != Value::Number) {
    if (Base.K != Cand.K) {
      std::printf("warn %s: type changed\n", Path.c_str());
      ++S.Warnings;
    }
    return;
  }
  double TolPct = 0, AbsFloor = 0;
  MetricClass MC = classify(Key, Opts, TolPct, AbsFloor);
  if (MC == MetricClass::Ignored || MC == MetricClass::MustStayTrue)
    return;
  ++S.Compared;
  double B = Base.Num, C = Cand.Num;
  bool Regressed = false;
  double DeltaPct = 0;
  if (MC == MetricClass::LowerBetter) {
    DeltaPct = B > 0 ? (C - B) / B * 100.0 : (C > 0 ? 100.0 : 0.0);
    Regressed = C - B > AbsFloor && DeltaPct > TolPct;
  } else { // HigherBetter
    DeltaPct = B > 0 ? (C - B) / B * 100.0 : 0.0;
    Regressed = B > 0 && -DeltaPct > TolPct && B - C > AbsFloor;
  }
  if (Regressed) {
    std::printf("REGRESSION %s: %g -> %g (%+.1f%%, tolerance %.0f%%)\n",
                Path.c_str(), B, C, DeltaPct, TolPct);
    ++S.Regressions;
  } else if (Opts.List) {
    std::printf("ok %s: %g -> %g (%+.1f%%)\n", Path.c_str(), B, C,
                DeltaPct);
  }
}

void compareValues(const std::string &Path, const std::string &Key,
                   const Value &Base, const Value &Cand,
                   const Options &Opts, Stats &S);

/// An element's identity within a report array: "name", or the
/// "engine"+"rep" pair, or empty (match by index).
std::string elementKey(const Value &E) {
  if (E.K != Value::Object)
    return {};
  if (const Value *Name = E.field("name"))
    if (Name->K == Value::String)
      return Name->Str;
  const Value *Engine = E.field("engine");
  const Value *Rep = E.field("rep");
  if (Engine && Engine->K == Value::String && Rep &&
      Rep->K == Value::String)
    return Engine->Str + "+" + Rep->Str;
  return {};
}

void compareArrays(const std::string &Path, const Value &Base,
                   const Value &Cand, const Options &Opts, Stats &S) {
  for (size_t I = 0; I < Base.Elems.size(); ++I) {
    const Value &BE = Base.Elems[I];
    std::string Id = elementKey(BE);
    const Value *CE = nullptr;
    if (!Id.empty()) {
      for (const Value &Cv : Cand.Elems)
        if (elementKey(Cv) == Id) {
          CE = &Cv;
          break;
        }
    } else if (I < Cand.Elems.size()) {
      CE = &Cand.Elems[I];
    }
    std::string Sub =
        Path + "[" + (Id.empty() ? std::to_string(I) : Id) + "]";
    if (!CE) {
      std::printf("warn %s: missing from candidate\n", Sub.c_str());
      ++S.Warnings;
      continue;
    }
    compareValues(Sub, "", BE, *CE, Opts, S);
  }
}

void compareValues(const std::string &Path, const std::string &Key,
                   const Value &Base, const Value &Cand,
                   const Options &Opts, Stats &S) {
  if (Base.K == Value::Object && Cand.K == Value::Object) {
    for (const auto &[K, BV] : Base.Fields) {
      const Value *CV = Cand.field(K);
      std::string Sub = Path.empty() ? K : Path + "." + K;
      if (!CV) {
        double TolPct, AbsFloor;
        // Only warn about keys the gate would have checked; reports may
        // drop descriptive fields freely.
        if (classify(K, Opts, TolPct, AbsFloor) != MetricClass::Ignored) {
          std::printf("warn %s: missing from candidate\n", Sub.c_str());
          ++S.Warnings;
        }
        continue;
      }
      compareValues(Sub, K, BV, *CV, Opts, S);
    }
    return;
  }
  if (Base.K == Value::Array && Cand.K == Value::Array) {
    compareArrays(Path, Base, Cand, Opts, S);
    return;
  }
  compareLeaf(Path, Key, Base, Cand, Opts, S);
}

bool loadJson(const char *PathArg, Value &Out) {
  std::ifstream In(PathArg, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "bench-diff: cannot open '%s'\n", PathArg);
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Text = Buf.str();
  std::string Err;
  if (!Parser(Text, Err).parse(Out)) {
    std::fprintf(stderr, "bench-diff: %s: JSON error: %s\n", PathArg,
                 Err.c_str());
    return false;
  }
  return true;
}

bool parsePct(const char *Flag, const char *S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S, &End);
  if (!End || *End != '\0' || Out < 0 || !std::isfinite(Out)) {
    std::fprintf(stderr,
                 "bench-diff: flag '%s' needs a non-negative percent, "
                 "got '%s'\n",
                 Flag, S);
    return false;
  }
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench-diff <baseline.json> <candidate.json>\n"
               "  [--tol-time PCT] [--tol-bytes PCT] [--tol-qps PCT] "
               "[--list]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *BasePath = nullptr, *CandPath = nullptr;
  Options Opts;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    auto takePct = [&](const char *Flag, double &Out) {
      if (std::strcmp(A, Flag) != 0)
        return false;
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "bench-diff: flag '%s' requires a value\n",
                     Flag);
        Out = -1;
        return true;
      }
      if (!parsePct(Flag, Argv[++I], Out))
        Out = -1;
      return true;
    };
    double Taken = 0;
    if (takePct("--tol-time", Opts.TolTimePct) ||
        takePct("--tol-bytes", Opts.TolBytesPct) ||
        takePct("--tol-qps", Opts.TolQpsPct)) {
      if (Opts.TolTimePct < 0 || Opts.TolBytesPct < 0 || Opts.TolQpsPct < 0)
        return 2;
      (void)Taken;
      continue;
    }
    if (std::strcmp(A, "--list") == 0) {
      Opts.List = true;
      continue;
    }
    if (A[0] == '-')
      return usage();
    if (!BasePath)
      BasePath = A;
    else if (!CandPath)
      CandPath = A;
    else
      return usage();
  }
  if (!BasePath || !CandPath)
    return usage();

  Value Base, Cand;
  if (!loadJson(BasePath, Base) || !loadJson(CandPath, Cand))
    return 2;

  Stats S;
  compareValues("", "", Base, Cand, Opts, S);
  std::printf("bench-diff: %zu metrics compared, %zu regressions, "
              "%zu warnings\n",
              S.Compared, S.Regressions, S.Warnings);
  return S.Regressions ? 1 : 0;
}
