//===-- bench/pipeline_throughput.cpp - Trace-pipeline throughput ---------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// End-to-end throughput of the parallel, content-addressed trace-
// construction pipeline (not a paper table). Regenerates the Table 1
// "mini-med" workload (raw methods with the paper-shaped defect mix)
// under three regimes:
//
//  - cache off (the pre-cache baseline),
//  - cold: an empty memory-only cache being populated, at 1/2/4 worker
//    threads (the parallel-scaling axis); memory-only so the rows time
//    the pipeline, not the disk (every on-disk store is an fsync),
//  - warm: a fresh TraceCache in the same process (empty memory map)
//    pointed at a directory one untimed run populated, so every hit is
//    served from disk and promoted into memory.
//
// Emits BENCH_pipeline.json with seconds per regime, the warm speedup
// over the memory-only cold run (warm_speedup_vs_memory_cold),
// per-phase breakdowns, cache counters, the cold runs' deterministic
// work counters (discovery attempts and interpreter runs), the warm
// directory's LGTR entry count and bytes (the format's size), and two
// determinism checks: the corpus fingerprint must be identical across
// thread counts and across off/cold/warm. It also reports
// trace-construction seconds per kept method, the cost framing of the
// paper's data-reliance result (Fig. 7: LIGER matches DYPRO with about
// 5x fewer concrete executions): wall seconds of each cold run and the
// cold t=1 phase CPU seconds, each divided by the number of kept
// methods.
//
// Usage: pipeline_throughput [--methods=N] [--paths=N] [--execs=N]
//                            [--seed=N] [--threads=N]
//                            [--trace-cache-dir=PATH]
// --threads sets the maximum cold thread count swept (default 4).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Stopwatch.h"
#include "testgen/TraceCache.h"

#include <filesystem>
#include <thread>
#include <vector>

using namespace liger;

namespace {

struct RunResult {
  size_t Threads = 0;
  double Seconds = 0;
  uint64_t Fingerprint = 0;
  CorpusStats Stats;
};

/// One full generation of the Table 1 mini-med workload.
RunResult runWorkload(const ExperimentScale &Scale, size_t Threads,
                      TraceCache *Cache) {
  CorpusOptions Options;
  Options.NumMethods = Scale.MethodsMed * 8;
  Options.TraceGen = Scale.traceGenOptions();
  Options.Seed = Scale.Seed + 41;
  Options.SyntaxDefectRate = 0.20;
  Options.ExternalRefRate = 0.45;
  Options.NonTerminationRate = 0.05;
  Options.TooSmallRate = 0.12;
  Options.Threads = Threads;
  Options.Cache = Cache;

  RunResult Result;
  Result.Threads = Threads;
  Stopwatch Timer;
  std::vector<MethodSample> Samples =
      generateMethodCorpus(Options, &Result.Stats);
  Result.Seconds = Timer.seconds();
  Result.Fingerprint = corpusFingerprint(Samples);
  return Result;
}

/// Wall seconds of \p R per kept method (0 when nothing was kept).
double secondsPerKept(const RunResult &R) {
  return R.Stats.Kept ? R.Seconds / static_cast<double>(R.Stats.Kept) : 0;
}

/// Number and summed size of the .lgtr entries in \p Dir.
struct DirUsage {
  uint64_t Entries = 0;
  uint64_t Bytes = 0;
};

DirUsage lgtrUsage(const std::string &Dir) {
  DirUsage Usage;
  std::error_code Ec;
  for (const auto &E : std::filesystem::directory_iterator(Dir, Ec))
    if (E.is_regular_file(Ec) && E.path().extension() == ".lgtr") {
      ++Usage.Entries;
      Usage.Bytes += E.file_size(Ec);
    }
  return Usage;
}

/// Summed pipeline-phase CPU seconds of \p R (cold runs).
double phaseCpuSeconds(const RunResult &R) {
  return R.Stats.PhaseExploreSeconds + R.Stats.PhaseSymbolicSeconds +
         R.Stats.PhaseMutateSeconds + R.Stats.PhaseRecordSeconds;
}

void printRun(const char *Label, const RunResult &R) {
  std::printf("%-18s threads=%zu  %.2fs  kept=%zu  %.2f ms/kept  "
              "hit/miss/bypass=%zu/%zu/%zu  fingerprint=%016llx\n",
              Label, R.Threads, R.Seconds, R.Stats.Kept,
              secondsPerKept(R) * 1e3, R.Stats.CacheHits,
              R.Stats.CacheMisses, R.Stats.CacheBypassed,
              static_cast<unsigned long long>(R.Fingerprint));
}

} // namespace

int main(int Argc, char **Argv) {
  ExperimentScale Scale = ExperimentScale::fromArgs(Argc, Argv);
  printBanner("Trace-construction pipeline throughput (cache + threads)",
              Scale);

  size_t MaxThreads = Scale.Threads > 1 ? Scale.Threads : 4;
  std::vector<size_t> ThreadCounts;
  for (size_t T = 1; T <= MaxThreads; T *= 2)
    ThreadCounts.push_back(T);

  std::string CacheRoot = Scale.TraceCacheDir.empty()
                              ? std::string("pipeline-bench-cache")
                              : Scale.TraceCacheDir;

  // Regime 1: cache off — the pre-cache serial baseline.
  RunResult Off = runWorkload(Scale, /*Threads=*/1, /*Cache=*/nullptr);
  printRun("off", Off);

  // Regime 2: cold — populate a fresh memory-only cache per thread
  // count. Every run must reproduce the off-run corpus bit for bit.
  std::vector<RunResult> Cold;
  for (size_t T : ThreadCounts) {
    TraceCache Cache(TraceCacheMode::Full, "");
    RunResult R = runWorkload(Scale, T, &Cache);
    printRun("cold", R);
    Cold.push_back(R);
  }

  // The warm regime's directory, written by one untimed cold run.
  std::string WarmDir = CacheRoot + "/warm";
  std::error_code Ec;
  std::filesystem::remove_all(WarmDir, Ec); // stale results must not hit
  RunResult Populate;
  {
    TraceCache Cache(TraceCacheMode::Full, WarmDir);
    Populate = runWorkload(Scale, MaxThreads, &Cache);
  }
  printRun("populate", Populate);
  DirUsage Usage = lgtrUsage(WarmDir);
  std::printf("warm directory: %llu entries, %llu bytes\n",
              static_cast<unsigned long long>(Usage.Entries),
              static_cast<unsigned long long>(Usage.Bytes));

  // Regime 3: warm — a fresh TraceCache instance (empty memory map, as
  // after a process restart) reading the populated directory.
  std::vector<RunResult> Warm;
  for (size_t T : ThreadCounts) {
    TraceCache Cache(TraceCacheMode::Full, WarmDir);
    RunResult R = runWorkload(Scale, T, &Cache);
    printRun("warm", R);
    Warm.push_back(R);
  }

  bool ColdDeterministic = Populate.Fingerprint == Off.Fingerprint;
  for (const RunResult &R : Cold)
    if (R.Fingerprint != Off.Fingerprint ||
        R.Stats.Attempts != Off.Stats.Attempts ||
        R.Stats.Executions != Off.Stats.Executions)
      ColdDeterministic = false;
  bool WarmIdentical = true;
  for (const RunResult &R : Warm)
    if (R.Fingerprint != Off.Fingerprint)
      WarmIdentical = false;
  bool WarmAllHits = true;
  for (const RunResult &R : Warm)
    if (R.Stats.CacheMisses != 0 || R.Stats.CacheHits == 0)
      WarmAllHits = false;

  double WarmSpeedup = Warm.front().Seconds > 0
                           ? Cold.front().Seconds / Warm.front().Seconds
                           : 0;
  double KeptCount = static_cast<double>(Off.Stats.Kept);
  double PhaseCpuPerKept =
      KeptCount > 0 ? phaseCpuSeconds(Cold.front()) / KeptCount : 0;
  std::printf("\ntrace construction per kept method: %.2f ms wall at "
              "t=%zu, %.2f ms phase CPU\n",
              secondsPerKept(Cold.back()) * 1e3, Cold.back().Threads,
              PhaseCpuPerKept * 1e3);
  std::printf("warm speedup over memory-only cold (t=1): %.1fx\n",
              WarmSpeedup);
  std::printf("corpus identical across thread counts: %s\n",
              ColdDeterministic ? "OK (bitwise)" : "FAILED");
  std::printf("corpus identical off/cold/warm: %s\n",
              WarmIdentical ? "OK (bitwise)" : "FAILED");
  std::printf("warm runs fully cache-served: %s\n",
              WarmAllHits ? "OK" : "FAILED");

  FILE *F = std::fopen("BENCH_pipeline.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot write BENCH_pipeline.json\n");
    return 1;
  }
  std::fprintf(F, "{\n");
  std::fprintf(F, "  \"raw_methods\": %zu,\n", Off.Stats.Requested);
  std::fprintf(F, "  \"kept_methods\": %zu,\n", Off.Stats.Kept);
  std::fprintf(F, "  \"target_paths\": %u,\n", Scale.TargetPaths);
  std::fprintf(F, "  \"execs_per_path\": %u,\n", Scale.ExecutionsPerPath);
  std::fprintf(F, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(Scale.Seed));
  std::fprintf(F, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(F, "  \"build_type\": \"%s\",\n", BenchBuildType);
  std::fprintf(F, "  \"baseline_off_seconds\": %.3f,\n", Off.Seconds);
  std::fprintf(F,
               "  \"phase_seconds_cold\": {\"explore\": %.3f, \"symbolic\": "
               "%.3f, \"mutate\": %.3f, \"record\": %.3f},\n",
               Cold.front().Stats.PhaseExploreSeconds,
               Cold.front().Stats.PhaseSymbolicSeconds,
               Cold.front().Stats.PhaseMutateSeconds,
               Cold.front().Stats.PhaseRecordSeconds);
  std::fprintf(F, "  \"phase_seconds_warm\": {\"replay\": %.3f},\n",
               Warm.front().Stats.PhaseReplaySeconds);
  std::fprintf(F, "  \"cache_dir_entries\": %llu,\n",
               static_cast<unsigned long long>(Usage.Entries));
  std::fprintf(F, "  \"cache_dir_bytes\": %llu,\n",
               static_cast<unsigned long long>(Usage.Bytes));
  std::fprintf(F, "  \"cold_phase_cpu_seconds_per_kept_method\": %.6f,\n",
               PhaseCpuPerKept);
  // Work counters are written for cold runs only: a warm run restores
  // the attempts from its entries and runs no interpreter.
  auto EmitRuns = [F](const char *Key, const std::vector<RunResult> &Runs,
                      const RunResult &Off, bool Work) {
    std::fprintf(F, "  \"%s\": [\n", Key);
    for (size_t I = 0; I < Runs.size(); ++I) {
      const RunResult &R = Runs[I];
      std::fprintf(F,
                   "    {\"threads\": %zu, \"seconds\": %.3f, "
                   "\"seconds_per_kept_method\": %.6f, "
                   "\"cache_hits\": %zu, \"cache_misses\": %zu, ",
                   R.Threads, R.Seconds, secondsPerKept(R), R.Stats.CacheHits,
                   R.Stats.CacheMisses);
      if (Work)
        std::fprintf(F, "\"attempts\": %zu, \"executions\": %zu, ",
                     R.Stats.Attempts, R.Stats.Executions);
      std::fprintf(F, "\"fingerprint_matches_off\": %s}%s\n",
                   R.Fingerprint == Off.Fingerprint ? "true" : "false",
                   I + 1 < Runs.size() ? "," : "");
    }
    std::fprintf(F, "  ],\n");
  };
  EmitRuns("cold", Cold, Off, /*Work=*/true);
  EmitRuns("warm", Warm, Off, /*Work=*/false);
  std::fprintf(F, "  \"warm_speedup_vs_memory_cold\": %.2f,\n", WarmSpeedup);
  std::fprintf(F, "  \"deterministic_across_threads\": %s,\n",
               ColdDeterministic ? "true" : "false");
  std::fprintf(F, "  \"identical_off_cold_warm\": %s,\n",
               WarmIdentical ? "true" : "false");
  std::fprintf(F, "  \"warm_fully_cache_served\": %s\n",
               WarmAllHits ? "true" : "false");
  std::fprintf(F, "}\n");
  std::fclose(F);
  std::printf("wrote BENCH_pipeline.json\n");

  return (ColdDeterministic && WarmIdentical && WarmAllHits) ? 0 : 1;
}
