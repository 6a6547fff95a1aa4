//===-- bench/epoch_throughput.cpp - Training throughput benchmark --------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// End-to-end training throughput of the mini-batch epoch loop (not a
// paper table). Trains the same LIGER name-prediction model from the
// same seed in three modes:
//
//   per-sample        one graph per sample, serial (the baseline)
//   batched           lockstep mini-batch graphs (Hooks.LossBatch),
//                     serial
//   batched-threaded  lockstep shard graphs driven over the ThreadPool
//
// and emits BENCH_epoch.json with samples/sec per mode, the speedup
// over the per-sample baseline, the peak live graph-node count per
// sample, and a determinism check: the batched and batched-threaded
// final losses must be bitwise-identical (the per-sample mode uses a
// different gradient-accumulation order and is deliberately excluded
// from that comparison).
//
// Usage: epoch_throughput [--smoke] [--repeats=N] [--methods=N]
//                         [--epochs=N] [--batch=N] [--hidden=N]
//                         [--threads=N] ...
// --threads sets the worker count of the batched-threaded mode; the
// default is the machine's core count capped at 4 (more workers than
// cores measures the OS scheduler, not the shard pipeline — pass
// --threads explicitly to oversubscribe on purpose). Each mode runs
// --repeats times (default 3) and reports the fastest; repeat losses
// must agree bitwise (same seed, deterministic loop). --smoke shrinks
// the corpus and epoch count for CI.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "eval/Experiments.h"
#include "eval/Training.h"
#include "models/Liger.h"
#include "support/Stopwatch.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace liger;

namespace {

struct ModeConfig {
  const char *Name;
  bool Batched;
  size_t Threads;
};

struct ModeResult {
  const char *Name = "";
  bool Batched = false;
  size_t Threads = 0;
  double Seconds = 0;
  double SamplesPerSec = 0;
  double FinalLoss = 0;
};

LigerConfig modelConfig(const ExperimentScale &Scale) {
  LigerConfig Config;
  Config.EmbedDim = Scale.EmbedDim;
  Config.Hidden = Scale.Hidden;
  Config.AttnHidden = Scale.Hidden;
  return Config;
}

/// Trains a fresh same-seed model in one mode (one timed repeat).
ModeResult runModeOnce(const NameTask &Task, const ExperimentScale &Scale,
                       const ModeConfig &Mode) {
  LigerNamePredictor Net(Task.Joint, Task.Target, modelConfig(Scale),
                         Scale.Seed);
  NameModelHooks Hooks;
  Hooks.Loss = [&](const MethodSample &S) { return Net.loss(S); };
  Hooks.LossBatch = [&](const std::vector<const MethodSample *> &Group) {
    return Net.lossBatch(Group);
  };
  Hooks.Predict = [&](const std::vector<MethodSample> &Samples) {
    return Net.predict(Samples);
  };
  Hooks.Params = &Net.params();

  TrainOptions Options = Scale.trainOptions();
  Options.BatchedSamples = Mode.Batched;
  Options.Threads = Mode.Threads;
  Options.SelectBestOnValidation = false; // time the epoch loop only

  Stopwatch Timer;
  TrainResult Train = trainNameModel(Hooks, Task.Split.Train,
                                     std::vector<MethodSample>(), Options);
  ModeResult Result;
  Result.Name = Mode.Name;
  Result.Batched = Mode.Batched;
  Result.Threads = Mode.Threads;
  Result.Seconds = Timer.seconds();
  Result.SamplesPerSec =
      static_cast<double>(Task.Split.Train.size() * Options.Epochs) /
      Result.Seconds;
  Result.FinalLoss = Train.FinalTrainLoss;
  return Result;
}

/// Peak live graph nodes over one serial pass (loss + backward per
/// sample, arena reset between samples).
size_t measurePeakNodes(const NameTask &Task, const ExperimentScale &Scale) {
  LigerNamePredictor Net(Task.Joint, Task.Target, modelConfig(Scale),
                         Scale.Seed);
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  GradSink Sink;
  for (const MethodSample &Sample : Task.Split.Train) {
    backward(Net.loss(Sample), Sink);
    Sink.clear();
    Arena.reset();
  }
  return Arena.peakLive();
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  size_t Repeats = 3;
  std::vector<char *> Args;
  for (int I = 0; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(Argv[I], "--repeats=", 10) == 0) {
      uint64_t N = 0;
      if (!parseDecimal(Argv[I] + 10, N) || N == 0) {
        std::fprintf(stderr, "epoch_throughput: --repeats takes a positive "
                             "decimal count, got '%s'\n",
                     Argv[I] + 10);
        return 2;
      }
      Repeats = N;
    } else
      Args.push_back(Argv[I]);
  }
  ExperimentScale Scale =
      ExperimentScale::fromArgs(static_cast<int>(Args.size()), Args.data());
  if (Smoke) {
    Scale.MethodsMed = 24;
    Scale.Epochs = 1;
    Scale.TargetPaths = 3;
    Scale.ExecutionsPerPath = 2;
  }
  // Default the threaded mode's worker count to the core count (capped
  // at 4): more workers than cores benchmarks the OS scheduler, not the
  // shard pipeline. An explicit --threads overrides.
  size_t Cores = std::max(1u, std::thread::hardware_concurrency());
  size_t PoolThreads =
      Scale.Threads > 1 ? Scale.Threads : std::min<size_t>(4, Cores);

  std::printf("building corpus (%zu methods)...\n", Scale.MethodsMed);
  NameTask Task = buildNameTask(Scale, /*Large=*/false);
  std::printf("train=%zu valid=%zu test=%zu, %zu epochs, batch %zu, "
              "%zu lockstep shards\n",
              Task.Split.Train.size(), Task.Split.Valid.size(),
              Task.Split.Test.size(), Scale.Epochs, Scale.BatchSize,
              Scale.LockstepShards);

  size_t PeakNodes = measurePeakNodes(Task, Scale);
  std::printf("peak live graph nodes per sample: %zu\n", PeakNodes);

  const ModeConfig Modes[] = {
      {"per-sample", false, 1},
      {"batched", true, 1},
      {"batched-threaded", true, PoolThreads},
  };

  // Repeats are interleaved round-robin across the modes (repeat 0 of
  // every mode, then repeat 1, ...) so slow drift on a noisy machine
  // penalizes every mode equally instead of whichever runs last; each
  // mode reports its fastest repeat. Every repeat trains the same seed
  // through the same deterministic loop, so a mode's final losses must
  // agree bitwise across repeats — a mismatch is fatal.
  const size_t NumModes = sizeof(Modes) / sizeof(Modes[0]);
  std::vector<ModeResult> Results(NumModes);
  for (size_t Rep = 0; Rep < Repeats; ++Rep) {
    for (size_t M = 0; M < NumModes; ++M) {
      ModeResult R = runModeOnce(Task, Scale, Modes[M]);
      if (Rep == 0) {
        Results[M] = R;
        continue;
      }
      if (R.FinalLoss != Results[M].FinalLoss) {
        std::fprintf(stderr,
                     "FATAL: %s repeat %zu final loss %.17g != %.17g\n",
                     R.Name, Rep, R.FinalLoss, Results[M].FinalLoss);
        return 1;
      }
      if (R.Seconds < Results[M].Seconds)
        Results[M] = R;
    }
  }
  for (const ModeResult &R : Results)
    std::printf("%-16s threads=%zu  %.2fs  %.1f samples/sec  "
                "final loss %.17g\n",
                R.Name, R.Threads, R.Seconds, R.SamplesPerSec, R.FinalLoss);

  // The two batched modes run the same shard partition (it depends only
  // on the batch size) and reduce shard sinks in shard order, so their
  // losses must agree bitwise at any thread count. The per-sample mode
  // accumulates gradients in a different order and is excluded.
  bool Deterministic = true;
  for (const ModeResult &R : Results)
    if (R.Batched && R.FinalLoss != Results[1].FinalLoss)
      Deterministic = false;
  std::printf("batched determinism across thread counts: %s\n",
              Deterministic ? "OK (bitwise)" : "FAILED");

  FILE *F = std::fopen("BENCH_epoch.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot write BENCH_epoch.json\n");
    return 1;
  }
  std::fprintf(F, "{\n");
  std::fprintf(F, "  \"train_samples\": %zu,\n", Task.Split.Train.size());
  std::fprintf(F, "  \"epochs\": %zu,\n", Scale.Epochs);
  std::fprintf(F, "  \"batch_size\": %zu,\n", Scale.BatchSize);
  std::fprintf(F, "  \"hidden\": %zu,\n", Scale.Hidden);
  std::fprintf(F, "  \"lockstep_shards\": %zu,\n", Scale.LockstepShards);
  std::fprintf(F, "  \"repeats\": %zu,\n", Repeats);
  std::fprintf(F, "  \"peak_graph_nodes\": %zu,\n", PeakNodes);
  std::fprintf(F, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(F, "  \"build_type\": \"%s\",\n", BenchBuildType);
  std::fprintf(F, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(Scale.Seed));
  std::fprintf(F, "  \"batched_deterministic_across_threads\": %s,\n",
               Deterministic ? "true" : "false");
  std::fprintf(F, "  \"configs\": [\n");
  for (size_t I = 0; I < Results.size(); ++I) {
    const ModeResult &R = Results[I];
    std::fprintf(F,
                 "    {\"mode\": \"%s\", \"threads\": %zu, "
                 "\"seconds\": %.3f, \"samples_per_sec\": %.2f, "
                 "\"final_loss\": %.17g, \"speedup_vs_per_sample\": %.3f}%s\n",
                 R.Name, R.Threads, R.Seconds, R.SamplesPerSec, R.FinalLoss,
                 Results.front().Seconds / R.Seconds,
                 I + 1 < Results.size() ? "," : "");
  }
  std::fprintf(F, "  ]\n}\n");
  std::fclose(F);
  std::printf("wrote BENCH_epoch.json\n");
  return !Deterministic;
}
