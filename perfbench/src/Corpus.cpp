//===-- perfbench/src/Corpus.cpp - The corpus workload --------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Trace construction through generateMethodCorpus over Table-1-shaped
// raw corpora (the defect mix of bench/pipeline_throughput). Each pass
// draws a new corpus from the run seed and times two phases on one fresh
// Full-mode TraceCache:
//
//   cold: every method misses, runs the pipeline and stores its entry;
//   warm: every method hits and rebinds the cached traces to its AST.
//
// The cache is memory-only: with LGTR files (an fsync per entry, plus
// the directory churn) the same run varied by 2x with the load on the
// machine's disk, which drowned the program. Per-method cost varies
// widely between tasks, so a run is many small passes over different
// corpora and reports medians over passes. Set-up is the first passes of
// the process, which run before allocator and thread pools are warm.
// The traced half also runs a cache-off pass per corpus: its fingerprint
// must match, and the cold phase minus it is the cost of storing entries.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workloads.h"

#include "eval/Experiments.h"
#include "support/Stopwatch.h"
#include "testgen/TraceCache.h"

#include <optional>

using namespace liger;
using namespace perfbench;

namespace {

/// Warm-up passes, reported as set-up and not measured.
constexpr size_t SetupPasses = 3;
/// Passes measured at least, whatever the time (see Train.cpp).
constexpr size_t MinPasses = 40;
/// peak_rss_mb is the median peak of the first this many measured
/// passes: a pass's memory depends on its corpus.
constexpr size_t RssPasses = 15;

CorpusOptions passOptions(uint64_t Seed, size_t Pass) {
  ExperimentScale Scale;
  CorpusOptions Options;
  Options.NumMethods = Scale.MethodsMed * 4;
  Options.TraceGen = Scale.traceGenOptions();
  Options.Seed = deriveSeed(Seed, "corpus-pass", Pass);
  Options.SyntaxDefectRate = 0.20;
  Options.ExternalRefRate = 0.45;
  Options.NonTerminationRate = 0.05;
  Options.TooSmallRate = 0.12;
  Options.Threads = benchThreads();
  return Options;
}

struct PassResult {
  double Seconds = 0;
  uint64_t Fingerprint = 0;
  CorpusStats Stats;
};

PassResult generate(CorpusOptions Options, TraceCache *Cache,
                    SpanRecorder *Rec, const char *SpanName, uint64_t Pass) {
  PassResult R;
  Options.Cache = Cache;
  std::vector<MethodSample> Samples;
  {
    ScopedSpan Span(Rec, SpanName, Pass);
    Stopwatch Timer;
    Samples = generateMethodCorpus(Options, &R.Stats);
    R.Seconds = Timer.seconds();
  }
  {
    ScopedSpan Span(Rec, "dataset.fingerprint", Pass);
    R.Fingerprint = corpusFingerprint(Samples);
  }
  ScopedSpan Span(Rec, "dataset.free_corpus", Pass);
  Samples = {};
  return R;
}

/// Sums the counters a traced run reports for its cold phases.
struct PhaseTotals {
  double Explore = 0, Symbolic = 0, Mutate = 0, Record = 0, Replay = 0;
  double ColdWall = 0, StoreOverhead = 0;
  size_t Passes = 0;
  uint64_t BadEntries = 0;
};

} // namespace

void perfbench::runCorpus(const RunOptions &Run, Report &Out) {
  const size_t Threads = benchThreads();
  std::unique_ptr<SpanRecorder> Rec;
  PhaseTotals Totals;

  auto runPhase = [&](double Seconds, bool Traced, size_t FirstPass) {
    SpanRecorder *R = Traced ? Rec.get() : nullptr;
    ScopedSpan Root(R, "bench.corpus");
    Stopwatch Phase;
    size_t Pass = FirstPass;
    for (; Pass == FirstPass || Pass < SetupPasses + MinPasses ||
           Phase.seconds() < Seconds;
         ++Pass) {
      ScopedSpan PassSpan(R, "bench.pass", Pass);
      CorpusOptions Options = passOptions(Run.Seed, Pass);
      bool Measured = !Traced && Pass >= SetupPasses;
      bool RssPass = Measured && Pass < SetupPasses + RssPasses;
      if (RssPass)
        resetPeakRss();
      std::optional<TraceCache> Cache;
      Cache.emplace(TraceCacheMode::Full, "");
      PassResult Cold =
          generate(Options, &*Cache, R, "dataset.generate_cold", Pass);
      PassResult Warm =
          generate(Options, &*Cache, R, "dataset.generate_warm", Pass);
      Totals.BadEntries += Cache->badEntries();
      {
        ScopedSpan Span(R, "testgen.cache_free", Pass);
        Cache.reset();
      }

      double Raw = static_cast<double>(Options.NumMethods);
      if (Traced) {
        Out.series("traced_rate").push_back(Raw / Cold.Seconds);
      } else if (!Measured) {
        Out.addSetup(Cold.Seconds + Warm.Seconds);
      } else {
        Out.series("op_ms").push_back(Cold.Seconds * 1e3);
        Out.series("rate").push_back(Raw / Cold.Seconds);
        Out.series("warm_rate").push_back(Raw / Warm.Seconds);
        if (RssPass)
          Out.series("rss_mb").push_back(peakRssMb());
      }
      std::string Where = "corpus pass " + std::to_string(Pass);
      Out.Outcomes.check(Cold.Stats.CacheHits == 0 &&
                             Cold.Stats.CacheMisses > 0,
                         Where + ": cold phase did not start from an empty "
                                 "cache");
      Out.Outcomes.check(Warm.Fingerprint == Cold.Fingerprint &&
                             Warm.Stats.CacheMisses == 0 &&
                             Warm.Stats.CacheHits == Cold.Stats.CacheMisses,
                         Where + ": warm phase differs from cold or missed");
      if (Pass == 0) {
        const CorpusStats &S = Cold.Stats;
        Out.value("dataset.requested", static_cast<double>(S.Requested));
        Out.value("dataset.kept", static_cast<double>(S.Kept));
        Out.value("dataset.parse_failures", static_cast<double>(S.ParseFailures));
        Out.value("dataset.external_refs",
                  static_cast<double>(S.ExternalRefFailures));
        Out.value("dataset.timeouts", static_cast<double>(S.TestgenTimeouts));
        Out.value("dataset.memory_bombs",
                  static_cast<double>(S.TestgenMemoryBombs));
        Out.value("dataset.too_small", static_cast<double>(S.TooSmall));
        Out.value("dataset.no_traces", static_cast<double>(S.NoTraces));
        Out.value("testgen.cache_misses", static_cast<double>(S.CacheMisses));
        Out.value("testgen.cache_hits",
                  static_cast<double>(Warm.Stats.CacheHits));
      }
      if (!Traced)
        continue;

      PassResult Off = generate(Options, nullptr, R, "dataset.generate_off",
                                Pass);
      Out.Outcomes.check(Off.Fingerprint == Cold.Fingerprint,
                         Where + ": cache-off corpus differs from cold");
      Totals.Explore += Cold.Stats.PhaseExploreSeconds;
      Totals.Symbolic += Cold.Stats.PhaseSymbolicSeconds;
      Totals.Mutate += Cold.Stats.PhaseMutateSeconds;
      Totals.Record += Cold.Stats.PhaseRecordSeconds;
      Totals.Replay += Warm.Stats.PhaseReplaySeconds;
      Totals.ColdWall += Cold.Seconds;
      Totals.StoreOverhead += Cold.Seconds - Off.Seconds;
      ++Totals.Passes;
    }
    return Pass;
  };

  size_t Passes = runPhase(Run.Trace ? Run.Seconds / 2 : Run.Seconds,
                           /*Traced=*/false, 0);
  Out.value("min_samples", MinPasses);
  if (Run.Trace) {
    Rec = std::make_unique<SpanRecorder>();
    runPhase(Run.Seconds / 2, /*Traced=*/true, Passes);
    double N = static_cast<double>(Totals.Passes);
    Out.value("testgen.explore_cpu_s", Totals.Explore / N);
    Out.value("testgen.symbolic_cpu_s", Totals.Symbolic / N);
    Out.value("testgen.mutate_cpu_s", Totals.Mutate / N);
    Out.value("testgen.record_cpu_s", Totals.Record / N);
    Out.value("testgen.replay_cpu_s", Totals.Replay / N);
    Out.value("testgen.cache_store_overhead_s", Totals.StoreOverhead / N);
    Out.value("support.parallel_efficiency",
              (Totals.Explore + Totals.Symbolic + Totals.Mutate +
               Totals.Record) /
                  (static_cast<double>(Threads) * Totals.ColdWall));
    std::string SpanFile = Run.WorkDir + "/spans.tsv";
    Out.Outcomes.check(Rec->write(SpanFile), "cannot write " + SpanFile);
    Out.info("spans", SpanFile);
  }
  Out.value("testgen.cache_bad_entries", static_cast<double>(Totals.BadEntries));
}
