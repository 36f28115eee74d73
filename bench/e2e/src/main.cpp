//===-- bench/e2e/src/main.cpp - End-to-end benchmark driver ---------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Usage (bench/e2e/run.sh builds this binary and calls it):
//
//   e2e-bench --workload W --seed N --seconds S --trace 0|1
//             --expected FILE [--trace-out FILE]
//       Runs one workload. The last stdout line is the result:
//       {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//       with the end-to-end metrics (--trace 0) or the per-layer metrics
//       (--trace 1).
//
//   e2e-bench --write-expected --seed N [--workload W] --out FILE
//       Runs the reference configuration (naive engine, chunked backend)
//       on every job (of W) and writes the expected outputs.
//
//   e2e-bench --source-hash --workload W --seed N
//       Prints the FNV-1a hash of W's generated program text.
//
//===----------------------------------------------------------------------===//

#include "E2E.h"

#include "support/Hashing.h"

#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

using namespace e2e;

namespace {

int usage() {
  std::cerr << "usage: e2e-bench --workload W --seed N --seconds S "
               "--trace 0|1 --expected FILE\n"
               "                 [--trace-out FILE]\n"
               "       e2e-bench --write-expected --seed N [--workload W] "
               "--out FILE\n"
               "       e2e-bench --source-hash --workload W --seed N\n"
               "workloads:";
  for (const Workload &W : allWorkloads())
    std::cerr << " " << W.Name;
  std::cerr << "\n";
  return 2;
}

/// Shortest text that reads back as exactly \p V.
std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, Ec == std::errc() ? End : Buf);
}

int writeExpected(const std::string &Only, uint64_t Seed,
                  const std::string &Path) {
  OutputsByJob Out;
  for (const Workload &W : allWorkloads()) {
    if (!Only.empty() && W.Name != Only)
      continue;
    for (const Job &J : W.Jobs) {
      if (Out.count(J.key()))
        continue;
      Clock::time_point T0 = Clock::now();
      JobRun R = runJob(generateSource(J, Seed), J, Config::Reference, Seed);
      if (!R.Error.empty()) {
        std::cerr << "e2e: reference run of " << J.key()
                  << " failed: " << R.Error << "\n";
        return 1;
      }
      Out[J.key()] = R.Out;
      std::cerr << "e2e: reference " << J.key() << " in " << secondsSince(T0)
                << " s\n";
    }
  }
  std::ofstream File(Path, std::ios::binary);
  if (!File || !(File << renderExpected(Seed, Out)) || !File.flush()) {
    std::cerr << "e2e: cannot write '" << Path << "'\n";
    return 1;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, Out;
  RunOptions Opts;
  bool WriteExpected = false, SourceHash = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&](std::string &Into) {
      if (I + 1 >= Argc)
        return false;
      Into = Argv[++I];
      return true;
    };
    std::string V;
    if (A == "--write-expected")
      WriteExpected = true;
    else if (A == "--source-hash")
      SourceHash = true;
    else if (A == "--seed" && Value(V))
      Opts.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds" && Value(V))
      Opts.Seconds = std::atof(V.c_str());
    else if (A == "--trace" && Value(V))
      Opts.Trace = V == "1";
    else if (!((A == "--workload" && Value(WorkloadName)) ||
               (A == "--expected" && Value(Opts.ExpectedPath)) ||
               (A == "--trace-out" && Value(Opts.TraceOut)) ||
               (A == "--out" && Value(Out))))
      return usage();
  }
  const Workload *W = findWorkload(WorkloadName);
  if (WriteExpected) {
    if (Out.empty() || (!WorkloadName.empty() && !W))
      return usage();
    return writeExpected(WorkloadName, Opts.Seed, Out);
  }
  if (!W || Opts.Seconds <= 0)
    return usage();
  if (SourceHash) {
    mahjong::Fnv1a64 H;
    for (const Job &J : W->Jobs)
      H.update(generateSource(J, Opts.Seed));
    std::printf("%016llx\n", static_cast<unsigned long long>(H.digest()));
    return 0;
  }

  // A run that hangs is killed well inside the 180 s a run may take.
  alarm(170);
  Result Res = runWorkload(*W, Opts);
  if (Res.Fatal) { // the run itself is an operation that failed
    ++Res.Attempted;
    ++Res.Failed;
  }
  bool Correct = !Res.Fatal && Res.Failed == 0 && Res.Attempted > 0;
  std::string Line = std::string("{\"correct\": ") +
                     (Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Res.Attempted) +
                     ", \"failed\": " + std::to_string(Res.Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < Res.Metrics.size(); ++I) {
    const Metric &M = Res.Metrics[I];
    std::cerr << "  " << M.Name << " = " << number(M.Value) << " " << M.Unit
              << "\n";
    Line += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " +
            number(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
  }
  Line += "}}";
  std::cout << Line << std::endl;
  return Correct ? 0 : 1;
}
