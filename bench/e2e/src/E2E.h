//===-- bench/e2e/src/E2E.h - End-to-end benchmark shared types -*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workloads, the timed analysis pass, reference outputs and the result
/// record of the end-to-end benchmark. The benchmark measures the library
/// from outside: it times calls into each module's public functions and
/// wraps each in an obs::ScopedSpan of its own, so a traced run can read
/// every layer's self time from the span tree.
///
//===----------------------------------------------------------------------===//

#ifndef MAHJONG_BENCH_E2E_E2E_H
#define MAHJONG_BENCH_E2E_E2E_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// One program of a workload and the analysis run on it: 2obj with either
/// the MAHJONG heap (M-2obj) or the allocation-site heap (the paper's kA).
struct Job {
  std::string Profile;
  double Scale = 1.0;
  bool Mahjong = true;

  /// Stable name used in expected files, e.g. "eclipse@0.07/M-2obj".
  std::string key() const;
};

struct Workload {
  std::string Name;
  std::vector<Job> Jobs;
};

const std::vector<Workload> &allWorkloads();
const Workload *findWorkload(std::string_view Name);

/// The .mj text of \p J. Seed 0 keeps the profile's built-in generator
/// seed; any other seed is mixed into it.
std::string generateSource(const Job &J, uint64_t Seed);

/// The outputs of one job that must equal the reference.
struct Outputs {
  uint64_t ResultDigest = 0;
  uint64_t SnapshotDigest = 0;
  uint64_t ProbeHash = 0;
  uint64_t MahjongObjects = 0; ///< 0 under the allocation-site heap
  uint64_t CallGraphEdges = 0;
  uint64_t PolyCallSites = 0;
  uint64_t MayFailCasts = 0;

  bool operator==(const Outputs &) const = default;
  /// Names of the fields that differ from \p Want, space-separated.
  std::string diff(const Outputs &Want) const;
};
using OutputsByJob = std::map<std::string, Outputs>;

/// The expected-file text for \p Out.
std::string renderExpected(uint64_t Seed, const OutputsByJob &Out);

/// Product: the CLI defaults a user gets (--solver auto, --set-rep
/// chunked, solver threads = hardware). Reference: the naive engine with
/// the chunked backend, which writes the expected files.
enum class Config { Product, Reference };

/// One execution of one job. WallS covers the job from the parse call to
/// the last probe answer; the output digests are computed afterwards.
struct JobRun {
  std::string Error; ///< set when the job failed (parse, timeout, decode)
  double WallS = 0;
  uint64_t TextBytes = 0;
  // MahjongResult's own stage times and sizes (M- jobs only).
  double PreS = 0, FpgS = 0, MergeS = 0;
  uint64_t AllocSites = 0, DfaStates = 0, PairsTested = 0, FpgEdges = 0;
  // Main analysis.
  std::string Engine;
  uint64_t Pops = 0, VarPtsEntries = 0, SetBytes = 0, Contexts = 0,
           CSObjs = 0, SCCsCollapsed = 0;
  double WaveP99Us = 0;
  // Serving.
  std::string Snapshot; ///< encoded .mjsnap bytes
  std::vector<uint64_t> ProbeNs;
  uint64_t CacheHits = 0, CacheMisses = 0;
  Outputs Out;
};

JobRun runJob(const std::string &Text, const Job &J, Config C,
              uint64_t Seed);

/// One metric as printed in the result line.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Fatal = false; ///< the run could not finish; correct is false
  std::vector<Metric> Metrics;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  /// Counts one checked operation; a failure is reported on stderr.
  void check(bool Ok, const std::string &What);
};

struct RunOptions {
  uint64_t Seed = 0;
  double Seconds = 30;
  bool Trace = false;
  std::string ExpectedPath; ///< expected outputs for this seed
  std::string TraceOut;     ///< Chrome trace of the traced run
};

/// Runs one workload: set-up, a warm-up pass, then passes until
/// Opts.Seconds are spent; every output is checked.
Result runWorkload(const Workload &W, const RunOptions &Opts);

/// Runs the host probe (HostProbe.cpp) in a child process. \returns its
/// time in seconds, or 0 when it could not run.
double hostProbeSeconds();

/// The probe's median time on the host the README's numbers come from.
/// End-to-end times are scaled by HostProbeNominalS / (median probe time
/// of the run), which reads them at that host's speed.
inline constexpr double HostProbeNominalS = 0.13;

} // namespace e2e

#endif // MAHJONG_BENCH_E2E_E2E_H
