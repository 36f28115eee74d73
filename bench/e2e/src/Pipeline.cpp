//===-- bench/e2e/src/Pipeline.cpp - Workloads and the analysis pass -------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "E2E.h"

#include "MiniJson.h"

#include "clients/Clients.h"
#include "core/Mahjong.h"
#include "ir/Parser.h"
#include "ir/PrettyPrinter.h"
#include "obs/Trace.h"
#include "pta/ResultDigest.h"
#include "serve/QueryEngine.h"
#include "serve/Snapshot.h"
#include "serve/Traffic.h"
#include "support/Hashing.h"
#include "workload/BenchmarkPrograms.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace mahjong;
using namespace e2e;

namespace {

/// Queries in the in-process probe at the end of every analysis job.
/// 10,000 rather than 1,000: with a tenth as many the probe's p99 moved
/// by a quarter from one seed to the next.
constexpr unsigned ProbeQueries = 10000;

/// Measured passes per run, at least, after one warm-up pass. The
/// warm-up pass faults in the memory every later pass reuses; it is
/// checked but not timed.
constexpr size_t MinPasses = 3;

/// The benchmark's layer spans, one per public call it times, and the
/// span around one job; job time minus the layer spans is other_s.
constexpr const char *LayerSpans[] = {
    "ir.parse",    "ir.cha",       "core.heap",    "pta.solve",  "clients.eval",
    "serve.build", "serve.encode", "serve.decode", "serve.probe"};
constexpr const char *JobSpan = "e2e.job";

/// Runs \p F inside the layer span \p Span.
template <class Fn> auto inSpan(const char *Span, Fn &&F) {
  obs::ScopedSpan S(Span);
  return F();
}

std::string hex64(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

} // namespace

std::string Job::key() const {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "@%g/", Scale);
  return Profile + Buf + (Mahjong ? "M-2obj" : "2obj");
}

const std::vector<Workload> &e2e::allWorkloads() {
  // Why each workload exists is in README.md; in short: the merge
  // dominates m2obj-eclipse, the solver and the snapshot build dominate
  // 2obj-pmd, and m2obj-small is many short layers. The scales keep every
  // pass near 3 s, so that a run holds enough passes for a steady median.
  static const std::vector<Workload> All = {
      {"m2obj-eclipse", {{"eclipse", 0.07, true}}},
      {"2obj-pmd", {{"pmd", 0.25, false}}},
      {"m2obj-small",
       {{"antlr", 1.0, true},
        {"fop", 1.0, true},
        {"luindex", 1.0, true},
        {"lusearch", 1.0, true}}},
  };
  return All;
}

const Workload *e2e::findWorkload(std::string_view Name) {
  for (const Workload &W : allWorkloads())
    if (W.Name == Name)
      return &W;
  return nullptr;
}

std::string e2e::generateSource(const Job &J, uint64_t Seed) {
  workload::WorkloadSpec S = workload::benchmarkSpec(J.Profile, J.Scale);
  if (Seed != 0)
    S.Seed = static_cast<uint32_t>(splitmix64(S.Seed ^ splitmix64(Seed)) &
                                   0x7FFFFFFF);
  return ir::printProgram(*workload::buildSyntheticProgram(S));
}

namespace {

/// The probe's query stream: the default kind mix with Zipf 1.1 keys,
/// seeded from the benchmark seed.
serve::QueryWorkload queryMix(uint64_t Seed) {
  serve::QueryWorkload W;
  W.ZipfS = 1.1;
  if (Seed != 0)
    W.Seed = splitmix64(Seed);
  return W;
}

} // namespace

//===----------------------------------------------------------------------===//
// Expected outputs
//===----------------------------------------------------------------------===//

namespace {

struct OutputField {
  const char *Name;
  uint64_t Outputs::*Member;
  bool Hex; ///< digests are written as hex strings, counts as numbers
};

const OutputField Fields[] = {
    {"result_digest", &Outputs::ResultDigest, true},
    {"snapshot_digest", &Outputs::SnapshotDigest, true},
    {"probe_hash", &Outputs::ProbeHash, true},
    {"mahjong_objects", &Outputs::MahjongObjects, false},
    {"cg_edges", &Outputs::CallGraphEdges, false},
    {"poly_sites", &Outputs::PolyCallSites, false},
    {"may_fail_casts", &Outputs::MayFailCasts, false},
};

bool readExpected(const std::string &Path, OutputsByJob &Out,
                  std::string &Err) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Err = "cannot open '" + Path + "'";
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Text = Buf.str();
  minijson::Value Root;
  if (!minijson::Parser(Text, Err).parse(Root))
    return false;
  const minijson::Value *Jobs = Root.field("jobs");
  if (!Jobs || Jobs->K != minijson::Value::Object) {
    Err = Path + ": missing 'jobs' object";
    return false;
  }
  for (const auto &[Key, V] : Jobs->Fields) {
    Outputs O;
    for (const OutputField &F : Fields) {
      const minijson::Value *X = V.field(F.Name);
      bool Ok = X && (F.Hex ? X->K == minijson::Value::String
                            : X->K == minijson::Value::Number);
      if (!Ok) {
        Err = Path + ": job '" + Key + "' lacks '" + F.Name + "'";
        return false;
      }
      O.*F.Member = F.Hex ? std::strtoull(X->Str.c_str(), nullptr, 16)
                          : static_cast<uint64_t>(X->Num);
    }
    Out[Key] = O;
  }
  return true;
}

} // namespace

std::string Outputs::diff(const Outputs &Want) const {
  std::string S;
  for (const OutputField &F : Fields)
    if (this->*F.Member != Want.*F.Member)
      S += std::string(S.empty() ? "" : " ") + F.Name;
  return S;
}

std::string e2e::renderExpected(uint64_t Seed, const OutputsByJob &Out) {
  std::ostringstream OS;
  OS << "{\n  \"seed\": " << Seed
     << ",\n  \"config\": \"2obj, --solver naive, --set-rep chunked\",\n"
     << "  \"jobs\": {";
  bool First = true;
  for (const auto &[Key, O] : Out) {
    OS << (First ? "\n" : ",\n") << "    \"" << Key << "\": {";
    First = false;
    for (size_t I = 0; I < std::size(Fields); ++I) {
      const OutputField &F = Fields[I];
      OS << (I ? ", " : "") << "\"" << F.Name << "\": ";
      if (F.Hex)
        OS << "\"" << hex64(O.*F.Member) << "\"";
      else
        OS << O.*F.Member;
    }
    OS << "}";
  }
  OS << "\n  }\n}\n";
  return OS.str();
}

namespace {

/// Loads the expected outputs of \p W's jobs; false when the file is
/// missing, malformed, or lacks one of the jobs.
bool loadExpectedFor(const Workload &W, const RunOptions &Opts,
                     OutputsByJob &Out) {
  std::string Err;
  if (Opts.ExpectedPath.empty()) {
    std::cerr << "e2e: no expected file given (--expected)\n";
    return false;
  }
  if (!readExpected(Opts.ExpectedPath, Out, Err)) {
    std::cerr << "e2e: " << Err << "\n";
    return false;
  }
  for (const Job &J : W.Jobs)
    if (!Out.count(J.key())) {
      std::cerr << "e2e: " << Opts.ExpectedPath << " has no entry for "
                << J.key() << "\n";
      return false;
    }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// One job, one pass
//===----------------------------------------------------------------------===//

JobRun e2e::runJob(const std::string &Text, const Job &J, Config C,
                   uint64_t Seed) {
  JobRun R;
  R.TextBytes = Text.size();
  // Declared outside the job span so the output digests below, and the
  // destructors, stay out of the timed job.
  std::unique_ptr<ir::Program> P;
  std::unique_ptr<ir::ClassHierarchy> CH;
  core::MahjongResult MR;
  std::unique_ptr<pta::PTAResult> Res;
  clients::ClientResults CR;
  std::shared_ptr<const serve::SnapshotData> Snap;
  std::vector<std::string> Queries;
  std::vector<serve::QueryResult> Answers;

  Clock::time_point T0 = Clock::now();
  {
    obs::ScopedSpan Span(JobSpan);
    std::string Err;
    P = inSpan("ir.parse", [&] { return ir::parseProgram(Text, Err); });
    if (!P) {
      R.Error = "parse error at " + Err;
      return R;
    }
    CH = inSpan("ir.cha",
                [&] { return std::make_unique<ir::ClassHierarchy>(*P); });

    pta::AnalysisOptions Opts;
    Opts.Kind = pta::ContextKind::Object;
    Opts.K = 2;
    Opts.TimeBudgetSeconds = 60;
    Opts.Rep = pta::SetRep::Chunked;
    Opts.Engine = C == Config::Product ? pta::SolverEngine::Auto
                                       : pta::SolverEngine::Naive;
    Opts.SolverThreads = 0; // hardware concurrency, as the CLI
    if (J.Mahjong) {
      MR = inSpan("core.heap",
                  [&] { return core::buildMahjongHeap(*P, *CH); });
      Opts.Heap = MR.Heap.get();
    }
    Res = inSpan("pta.solve",
                 [&] { return pta::runPointerAnalysis(*P, *CH, Opts); });
    if (Res->Stats.TimedOut) {
      R.Error = "main analysis exceeded its 60 s budget";
      return R;
    }
    CR = inSpan("clients.eval",
                [&] { return clients::evaluateClients(*Res); });

    serve::SnapshotData Built =
        inSpan("serve.build", [&] { return serve::buildSnapshot(*Res); });
    R.Snapshot =
        inSpan("serve.encode", [&] { return serve::encodeSnapshot(Built); });
    Snap = inSpan("serve.decode", [&] {
      return std::shared_ptr<const serve::SnapshotData>(
          serve::decodeSnapshot(R.Snapshot, Err));
    });
    if (!Snap) {
      R.Error = "snapshot decode: " + Err;
      return R;
    }

    inSpan("serve.probe", [&] {
      serve::QueryEngine Engine(Snap);
      serve::QueryWorkload Mix = queryMix(Seed);
      serve::QueryGenerator Gen(*Snap, Mix, 0);
      Queries.reserve(ProbeQueries);
      Answers.reserve(ProbeQueries);
      R.ProbeNs.reserve(ProbeQueries);
      for (unsigned I = 0; I < ProbeQueries; ++I) {
        Queries.push_back(Gen.next());
        Clock::time_point Q0 = Clock::now();
        Answers.push_back(Engine.run(Queries.back()));
        R.ProbeNs.push_back(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - Q0)
                .count()));
      }
      serve::QueryCache::Stats CS = Engine.cacheStats();
      R.CacheHits = CS.Hits;
      R.CacheMisses = CS.Misses;
      return 0;
    });
  }
  R.WallS = secondsSince(T0);

  R.Out.ResultDigest = pta::canonicalResultDigest(*Res);
  R.Out.SnapshotDigest = serve::snapshotDigest(*Snap);
  Fnv1a64 H;
  for (size_t I = 0; I < Queries.size(); ++I) {
    H.update(Queries[I]);
    H.update(Answers[I].Ok ? " -> " + Answers[I].toString()
                           : " !! " + Answers[I].Error);
    H.update("\n");
  }
  R.Out.ProbeHash = H.digest();
  R.Out.MahjongObjects = J.Mahjong ? MR.numMahjongObjects() : 0;
  R.Out.CallGraphEdges = CR.CallGraphEdges;
  R.Out.PolyCallSites = CR.PolyCallSites;
  R.Out.MayFailCasts = CR.MayFailCasts;

  if (J.Mahjong) {
    R.PreS = MR.PreSeconds;
    R.FpgS = MR.FPGSeconds;
    R.MergeS = MR.MahjongSeconds;
    R.AllocSites = MR.numAllocSiteObjects();
    R.DfaStates = MR.Modeling.DFAStates;
    R.PairsTested = MR.Modeling.PairsTested;
    R.FpgEdges = MR.FPG->numEdges();
  }
  const pta::PTAStats &S = Res->Stats;
  R.Engine = Res->EngineName;
  R.Pops = S.WorklistPops;
  R.VarPtsEntries = S.VarPtsEntries;
  R.SetBytes = S.SetBytes;
  R.Contexts = S.NumContexts;
  R.CSObjs = S.NumCSObjs;
  R.SCCsCollapsed = S.SCCsCollapsed;
  R.WaveP99Us = Res->WaveMicros.count()
                    ? static_cast<double>(Res->WaveMicros.percentile(0.99))
                    : 0;
  return R;
}

namespace {

/// Per-layer self times of one traced pass, read from the span tree.
struct LayerTimes {
  std::map<std::string, double> SelfS; ///< keyed by layer span name
  double PassS = 0;  ///< sum of the job spans
  double OtherS = 0; ///< PassS minus every layer's self time
};

/// Layer self times of the events from \p First on: one traced pass on
/// the benchmark's thread.
LayerTimes layerTimes(const std::vector<obs::ChromeTraceSink::Event> &Events,
                      size_t First) {
  // The benchmark's spans form a two-level tree on its own thread: job
  // spans with layer spans as children, and the library's spans
  // (pre-analysis, automata-merge, wave, ...) nested inside the layers.
  // Layer spans never nest in each other, so a layer's self time is the
  // sum of its span durations, and a job's self time is what is left.
  LayerTimes T;
  for (size_t I = First; I < Events.size(); ++I) {
    const obs::ChromeTraceSink::Event &E = Events[I];
    double S = static_cast<double>(E.DurNs) / 1e9;
    if (std::strcmp(E.Name, JobSpan) == 0) {
      T.PassS += S;
      continue;
    }
    for (const char *L : LayerSpans)
      if (std::strcmp(E.Name, L) == 0)
        T.SelfS[L] += S;
  }
  double Layers = 0;
  for (const auto &[Name, S] : T.SelfS)
    Layers += S;
  T.OtherS = T.PassS - Layers;
  return T;
}

/// Every job of a workload run once.
struct Pass {
  std::vector<JobRun> Runs;
  double WallS = 0; ///< sum of the jobs' WallS
  bool Traced = false;
  LayerTimes Layers; ///< traced passes only
};

/// Runs every job of \p W once with the product configuration and checks
/// each against \p Expected. With \p Sink non-null the pass is traced.
Pass runPass(const Workload &W, const std::vector<std::string> &Texts,
             uint64_t Seed, const OutputsByJob &Expected,
             obs::ChromeTraceSink *Sink, Result &Res) {
  Pass P;
  P.Traced = Sink != nullptr;
  size_t First = 0;
  if (Sink) {
    First = Sink->laneForCurrentThread().Events.size();
    obs::installTraceSink(Sink);
  }
  for (size_t I = 0; I < W.Jobs.size(); ++I) {
    JobRun R = runJob(Texts[I], W.Jobs[I], Config::Product, Seed);
    P.WallS += R.WallS;
    const std::string Key = W.Jobs[I].key();
    if (!R.Error.empty())
      Res.check(false, Key + ": " + R.Error);
    else
      Res.check(R.Out == Expected.at(Key),
                Key + ": differs from the expected file in: " +
                    R.Out.diff(Expected.at(Key)));
    P.Runs.push_back(std::move(R));
  }
  if (Sink) {
    obs::installTraceSink(nullptr);
    P.Layers = layerTimes(Sink->laneForCurrentThread().Events, First);
  }
  return P;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// Nearest-rank quantile: sorted[min(N-1, floor(Q*N))].
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = std::min(V.size() - 1, static_cast<size_t>(
                                           Q * static_cast<double>(V.size())));
  return V[Rank];
}

double peakRssMb() {
  rusage RU{};
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

/// Adds every per-layer metric, in the order of BENCHMARK.json.
void addLayerMetrics(Result &Res, const LayerTimes &T,
                     const std::vector<JobRun> &Runs, double TraceOverheadPct,
                     double ProbeS) {
  auto Self = [&T](const char *Span) {
    auto It = T.SelfS.find(Span);
    return It == T.SelfS.end() ? 0.0 : It->second;
  };
  auto Sum = [&Runs](auto Member) {
    double S = 0;
    for (const JobRun &R : Runs)
      S += static_cast<double>(R.*Member);
    return S;
  };
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  double WaveP99 = 0;
  std::vector<double> Ns;
  for (const JobRun &R : Runs) {
    WaveP99 = std::max(WaveP99, R.WaveP99Us);
    Ns.insert(Ns.end(), R.ProbeNs.begin(), R.ProbeNs.end());
  }

  Res.add("ir.parse_s", Self("ir.parse"), "s");
  Res.add("ir.parse_mb_per_s",
          Ratio(Sum(&JobRun::TextBytes) / 1e6, Self("ir.parse")), "MB/s");
  Res.add("ir.cha_s", Self("ir.cha"), "s");

  Res.add("core.heap_s", Self("core.heap"), "s");
  Res.add("core.pre_s", Sum(&JobRun::PreS), "s");
  Res.add("core.fpg_s", Sum(&JobRun::FpgS), "s");
  Res.add("core.merge_s", Sum(&JobRun::MergeS), "s");
  double Sites = Sum(&JobRun::AllocSites);
  double Objects = 0;
  for (const JobRun &R : Runs)
    Objects += static_cast<double>(R.Out.MahjongObjects);
  Res.add("core.alloc_sites", Sites, "count");
  Res.add("core.objects", Objects, "count");
  Res.add("core.dfa_states", Sum(&JobRun::DfaStates), "count");
  Res.add("core.pairs_tested", Sum(&JobRun::PairsTested), "count");
  Res.add("core.fpg_edges", Sum(&JobRun::FpgEdges), "count");
  Res.add("core.merge_ratio", Ratio(Objects, Sites), "ratio");

  Res.add("pta.solve_s", Self("pta.solve"), "s");
  Res.add("pta.pops", Sum(&JobRun::Pops), "count");
  Res.add("pta.pops_per_s", Ratio(Sum(&JobRun::Pops), Self("pta.solve")),
          "1/s");
  Res.add("pta.var_pts_entries", Sum(&JobRun::VarPtsEntries), "count");
  Res.add("pta.set_bytes", Sum(&JobRun::SetBytes), "B");
  Res.add("pta.contexts", Sum(&JobRun::Contexts), "count");
  Res.add("pta.cs_objs", Sum(&JobRun::CSObjs), "count");
  Res.add("pta.sccs_collapsed", Sum(&JobRun::SCCsCollapsed), "count");
  Res.add("pta.wave_p99_us", WaveP99, "us");

  double Edges = 0, Poly = 0, MayFail = 0;
  for (const JobRun &R : Runs) {
    Edges += static_cast<double>(R.Out.CallGraphEdges);
    Poly += static_cast<double>(R.Out.PolyCallSites);
    MayFail += static_cast<double>(R.Out.MayFailCasts);
  }
  Res.add("clients.eval_s", Self("clients.eval"), "s");
  Res.add("clients.cg_edges", Edges, "count");
  Res.add("clients.poly_sites", Poly, "count");
  Res.add("clients.may_fail_casts", MayFail, "count");

  double SnapBytes = 0;
  for (const JobRun &R : Runs)
    SnapBytes += static_cast<double>(R.Snapshot.size());
  double Hits = Sum(&JobRun::CacheHits), Misses = Sum(&JobRun::CacheMisses);
  Res.add("serve.build_s", Self("serve.build"), "s");
  Res.add("serve.encode_s", Self("serve.encode"), "s");
  Res.add("serve.decode_s", Self("serve.decode"), "s");
  Res.add("serve.probe_s", Self("serve.probe"), "s");
  Res.add("serve.snapshot_bytes", SnapBytes, "B");
  Res.add("serve.engine_ns_p50", quantile(Ns, 0.50), "ns");
  Res.add("serve.engine_ns_p99", quantile(Ns, 0.99), "ns");
  Res.add("serve.cache_hit_ratio", Ratio(Hits, Hits + Misses), "ratio");

  Res.add("other_s", T.OtherS, "s");
  Res.add("pass_traced_s", T.PassS, "s");
  Res.add("trace_overhead_pct", TraceOverheadPct, "%");
  Res.add("host.probe_s", ProbeS, "s");
}

/// Adds every per-layer metric, read from the traced pass of median wall
/// time among \p Passes; \p ProbeS is the run's median host probe time.
void addTracedMetrics(Result &Res, const std::vector<Pass> &Passes,
                      double ProbeS) {
  std::vector<const Pass *> Traced;
  std::vector<double> TracedS, UntracedS;
  for (const Pass &P : Passes) {
    if (P.Traced)
      Traced.push_back(&P);
    (P.Traced ? TracedS : UntracedS).push_back(P.WallS);
  }
  if (Traced.empty()) {
    std::cerr << "e2e: no traced pass ran\n";
    Res.Fatal = true;
    return;
  }
  // Attribute the traced pass of median wall time, so the layer times
  // and other_s add up to one pass that really ran.
  std::sort(Traced.begin(), Traced.end(), [](const Pass *A, const Pass *B) {
    return A->Layers.PassS < B->Layers.PassS;
  });
  const Pass &Mid = *Traced[(Traced.size() - 1) / 2];
  double Overhead =
      UntracedS.empty() ? 0 : (median(TracedS) / median(UntracedS) - 1) * 100;
  addLayerMetrics(Res, Mid.Layers, Mid.Runs, Overhead, ProbeS);
  for (const JobRun &R : Mid.Runs)
    std::cerr << "e2e: traced pass: engine " << R.Engine << "\n";
  std::cerr << "e2e: per-layer metrics from the median of " << Traced.size()
            << " traced pass(es); " << UntracedS.size()
            << " untraced pass(es) for the overhead\n";
}

/// Generates the text of every job of \p W once more, appending the time
/// to \p SetupS. \returns false when \p Texts already held a different
/// text for the same seed.
bool generateSetup(const Workload &W, uint64_t Seed,
                   std::vector<std::string> &Texts,
                   std::vector<double> &SetupS) {
  std::vector<std::string> Gen;
  Clock::time_point T0 = Clock::now();
  for (const Job &J : W.Jobs)
    Gen.push_back(generateSource(J, Seed));
  SetupS.push_back(secondsSince(T0));
  if (!Texts.empty() && Gen != Texts) {
    std::cerr << "e2e: the same seed generated different program text\n";
    return false;
  }
  Texts = std::move(Gen);
  return true;
}

} // namespace

void Result::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  std::cerr << "e2e: FAILED: " << What << "\n";
}

Result e2e::runWorkload(const Workload &W, const RunOptions &Opts) {
  Result Res;
  std::vector<std::string> Texts;
  std::vector<double> SetupS;
  OutputsByJob Expected;
  if (!generateSetup(W, Opts.Seed, Texts, SetupS) ||
      !loadExpectedFor(W, Opts, Expected)) {
    Res.Fatal = true;
    return Res;
  }

  obs::ChromeTraceSink Sink;
  runPass(W, Texts, Opts.Seed, Expected, nullptr, Res); // warm-up
  // Passes run while the next one, at the average pace so far, ends
  // within the measuring time, and at least MinPasses of them. Before
  // every pass the host probe runs and the set-up is repeated: one set-up
  // takes 0.05-0.2 s, and on a shared host such short spans fall into
  // fast and slow phases lasting seconds, so set-ups spread over the run
  // sample the same conditions as the passes. A traced run alternates
  // untraced and traced passes, so the tracing overhead is measured on the
  // same inputs in the same process.
  std::vector<Pass> Passes;
  std::vector<double> ProbeS;
  auto Probe = [&] {
    double S = hostProbeSeconds();
    if (S <= 0) {
      std::cerr << "e2e: the host probe failed\n";
      Res.Fatal = true;
    }
    ProbeS.push_back(S);
  };
  Clock::time_point RunStart = Clock::now();
  auto NextPassFits = [&] {
    double Spent = secondsSince(RunStart);
    return Spent + Spent / static_cast<double>(Passes.size()) <= Opts.Seconds;
  };
  while (Passes.size() < MinPasses || NextPassFits()) {
    Probe();
    if (!generateSetup(W, Opts.Seed, Texts, SetupS)) {
      Res.Fatal = true;
      break;
    }
    bool Traced = Opts.Trace && Passes.size() % 2 == 1;
    Passes.push_back(runPass(W, Texts, Opts.Seed, Expected,
                             Traced ? &Sink : nullptr, Res));
  }
  Probe();

  if (Opts.Trace) {
    addTracedMetrics(Res, Passes, median(ProbeS));
    std::string Err;
    if (!Opts.TraceOut.empty() && !Sink.writeFile(Opts.TraceOut, Err)) {
      std::cerr << "e2e: " << Err << "\n";
      Res.Fatal = true;
    }
    return Res;
  }

  std::vector<double> PassS;
  std::cerr << "e2e: pass seconds:";
  for (const Pass &P : Passes) {
    std::cerr << " " << P.WallS;
    PassS.push_back(P.WallS);
  }
  std::cerr << "\ne2e: probe seconds:";
  for (double S : ProbeS)
    std::cerr << " " << S;
  std::cerr << "\n";
  // Read the times at the reference host's speed (HostProbeNominalS).
  double HostScale = HostProbeNominalS / median(ProbeS);
  Res.add("pipeline_s", median(PassS) * HostScale, "s");
  Res.add("peak_rss_mb", peakRssMb(), "MB");
  Res.add("setup_s", median(SetupS) * HostScale, "s");
  std::cerr << "e2e: pipeline_s is the median of " << PassS.size()
            << " passes after a warm-up pass (" << median(PassS)
            << " s as measured), setup_s of " << SetupS.size()
            << " set-ups (" << median(SetupS)
            << " s as measured); host scale " << HostScale << "\n";
  return Res;
}
