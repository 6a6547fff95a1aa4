//===-- bench/serve_throughput.cpp - Serving latency/throughput -----------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Benchmarks the forward-only serving stack (not a paper table), in
// two parts:
//
//  1. Runtime latency: per-method encode+decode latency of the no-graph
//     LigerInference runtime, cold (empty embedding caches) and warm,
//     with a bitwise equality check of its program embeddings against
//     the autodiff encoder on the same weights. (The predicted names
//     are pinned in ctest: InferenceEquivalenceTest compares them with
//     the graph decode oracle.)
//
//  2. Load sweep: a ServeEngine handling a burst of distinct method
//     sources at 1/2/4 workers, cold trace cache (fresh directory)
//     then warm (same burst again), reporting QPS and p50/p99
//     per-request latency for each cell.
//
// Emits BENCH_serve.json; exits nonzero when any equality or
// cache-behavior check fails.
//
// Usage: serve_throughput [--methods=N] [--hidden=N] [--embed=N]
//                         [--paths=N] [--execs=N] [--seed=N]
//                         [--trace-cache-dir=PATH]
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "models/Inference.h"
#include "nn/GraphArena.h"
#include "serve/Serve.h"
#include "support/Stopwatch.h"
#include "testgen/TraceCache.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

using namespace liger;

namespace {

double percentile(std::vector<double> Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  std::sort(Sorted.begin(), Sorted.end());
  size_t Index = static_cast<size_t>(Q * double(Sorted.size() - 1) + 0.5);
  return Sorted[std::min(Index, Sorted.size() - 1)];
}

double meanOf(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return Sum / double(V.size());
}

struct SweepCell {
  size_t Workers = 0;
  double Seconds = 0;
  double Qps = 0;
  double P50 = 0;
  double P99 = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  bool AllOk = true;
};

SweepCell measureBurst(ServeEngine &Engine, size_t Workers,
                       const std::vector<ServeRequest> &Burst) {
  SweepCell Cell;
  Cell.Workers = Workers;
  Stopwatch Timer;
  std::vector<ServeResponse> Out = Engine.handleBatch(Burst);
  Cell.Seconds = Timer.seconds();
  Cell.Qps = Cell.Seconds > 0 ? double(Out.size()) / Cell.Seconds : 0;
  std::vector<double> Latencies;
  Latencies.reserve(Out.size());
  for (const ServeResponse &R : Out) {
    Latencies.push_back(R.Millis);
    if (R.Status != ServeStatus::Ok)
      Cell.AllOk = false;
    if (R.TraceCacheHit)
      ++Cell.CacheHits;
    else
      ++Cell.CacheMisses;
  }
  Cell.P50 = percentile(Latencies, 0.50);
  Cell.P99 = percentile(Latencies, 0.99);
  return Cell;
}

/// Distinct method sources for the load burst: every task variant in
/// the library, instantiated under a unique name so a cold cache sees
/// all misses and the repeat burst all hits.
std::vector<ServeRequest> buildBurst() {
  std::vector<ServeRequest> Burst;
  for (const TaskSpec &Task : taskLibrary())
    for (size_t V = 0; V < Task.Variants.size(); ++V) {
      std::string Name =
          "serve" + Task.Key + "V" + std::to_string(V);
      ServeRequest Req;
      Req.MethodName = Name;
      Req.Source = replaceIdentifier(Task.Variants[V].Source, "FN", Name);
      Burst.push_back(std::move(Req));
    }
  return Burst;
}

} // namespace

int main(int Argc, char **Argv) {
  ExperimentScale Scale = ExperimentScale::fromArgs(Argc, Argv);
  printBanner("Forward-only serving: inference latency + load sweep", Scale);

  //===--------------------------------------------------------------------===//
  // Part 1: forward-only runtime latency; embeddings checked against the
  // autodiff encoder on the same weights.
  //===--------------------------------------------------------------------===//

  LigerConfig Config = serveLigerConfig(Scale);
  NameTask Task = buildNameTask(Scale, /*Large=*/false);
  LigerNamePredictor Net(Task.Joint, Task.Target, Config, Scale.Seed);
  WeightImage Image = WeightImage::fromStore(Net.params());
  LigerInference Inference(Image, Task.Joint, &Task.Target, Config);

  std::vector<const MethodSample *> Samples;
  for (const MethodSample &S : Task.Split.Test)
    Samples.push_back(&S);
  for (const MethodSample &S : Task.Split.Valid)
    Samples.push_back(&S);
  if (Samples.empty())
    for (const MethodSample &S : Task.Split.Train)
      Samples.push_back(&S);
  std::printf("equivalence + latency over %zu methods\n", Samples.size());

  bool BitwiseIdentical = true;
  std::vector<double> InferColdMs, InferWarmMs;

  {
    GraphArena Arena;
    GraphArena::Scope Scope(Arena);
    for (const MethodSample *S : Samples) {
      GraphArena::current().reset();
      GraphEncoding Enc = Net.encoder().encode(S->Traces);

      Stopwatch ColdTimer;
      Inference.predictName(S->Traces);
      InferColdMs.push_back(ColdTimer.seconds() * 1e3);

      const float *Embedding = Inference.encode(S->Traces);
      if (std::memcmp(Embedding, Enc.ProgramEmbedding->Value.data(),
                      Config.Hidden * sizeof(float)) != 0)
        BitwiseIdentical = false;
    }
  }
  // Warm pass: the embedding store is primed now.
  for (const MethodSample *S : Samples) {
    Stopwatch Timer;
    Inference.predictName(S->Traces);
    InferWarmMs.push_back(Timer.seconds() * 1e3);
  }

  double ColdMean = meanOf(InferColdMs);
  double WarmMean = meanOf(InferWarmMs);
  const LigerInference::CacheStats &EmbCache = Inference.cacheStats();

  std::printf("inference (cold):   mean %.3f ms/method\n", ColdMean);
  std::printf("inference (warm):   mean %.3f ms/method\n", WarmMean);
  std::printf("embeddings bitwise-identical: %s\n\n",
              BitwiseIdentical ? "OK" : "FAILED");

  //===--------------------------------------------------------------------===//
  // Part 2: load sweep over workers x {cold, warm} trace cache.
  //===--------------------------------------------------------------------===//

  std::string CacheRoot = Scale.TraceCacheDir.empty()
                              ? std::string("serve-bench-cache")
                              : Scale.TraceCacheDir;
  std::vector<ServeRequest> Candidates = buildBurst();

  // Probe pass (uncached, unmeasured): keep only methods the service
  // accepts, so the measured cells contain Ok requests exclusively —
  // some library variants are below the 3-statement threshold or
  // produce no traces by design.
  std::vector<ServeRequest> Burst;
  {
    ServeConfig Probe;
    Probe.Scale = Scale;
    Probe.Scale.CacheMode = TraceCacheMode::Off;
    Probe.Scale.Cache = nullptr;
    Probe.Workers = 2;
    ServeEngine ProbeEngine(Probe);
    std::vector<ServeResponse> ProbeOut = ProbeEngine.handleBatch(Candidates);
    for (size_t I = 0; I < ProbeOut.size(); ++I)
      if (ProbeOut[I].Status == ServeStatus::Ok)
        Burst.push_back(Candidates[I]);
  }
  std::printf("load sweep: %zu servable of %zu library methods per burst\n",
              Burst.size(), Candidates.size());

  std::vector<SweepCell> Cold, Warm;
  bool WarmAllHits = true;
  bool SweepAllOk = true;
  for (size_t Workers : {size_t(1), size_t(2), size_t(4)}) {
    std::string Dir = CacheRoot + "/w" + std::to_string(Workers);
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec); // cold must be cold

    ServeConfig SC;
    SC.Scale = Scale;
    SC.Scale.CacheMode = TraceCacheMode::Full;
    SC.Scale.TraceCacheDir = Dir;
    SC.Scale.Cache =
        std::make_shared<TraceCache>(SC.Scale.CacheMode, SC.Scale.TraceCacheDir);
    SC.Workers = Workers;
    ServeEngine Engine(SC);

    SweepCell ColdCell = measureBurst(Engine, Workers, Burst);
    SweepCell WarmCell = measureBurst(Engine, Workers, Burst);
    std::printf("workers=%zu cold: %6.1f qps p50=%.2fms p99=%.2fms | "
                "warm: %6.1f qps p50=%.2fms p99=%.2fms\n",
                Workers, ColdCell.Qps, ColdCell.P50, ColdCell.P99,
                WarmCell.Qps, WarmCell.P50, WarmCell.P99);
    if (WarmCell.CacheMisses != 0 || WarmCell.CacheHits == 0)
      WarmAllHits = false;
    SweepAllOk = SweepAllOk && ColdCell.AllOk && WarmCell.AllOk;
    Cold.push_back(ColdCell);
    Warm.push_back(WarmCell);
  }
  std::printf("warm bursts fully cache-served: %s\n",
              WarmAllHits ? "OK" : "FAILED");
  std::printf("all sweep requests Ok:          %s\n",
              SweepAllOk ? "OK" : "FAILED");

  //===--------------------------------------------------------------------===//
  // BENCH_serve.json
  //===--------------------------------------------------------------------===//

  FILE *F = std::fopen("BENCH_serve.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot write BENCH_serve.json\n");
    return 1;
  }
  std::fprintf(F, "{\n");
  std::fprintf(F, "  \"methods\": %zu,\n", Samples.size());
  std::fprintf(F, "  \"hidden\": %zu,\n", Scale.Hidden);
  std::fprintf(F, "  \"embed\": %zu,\n", Scale.EmbedDim);
  std::fprintf(F, "  \"paths\": %u,\n", Scale.TargetPaths);
  std::fprintf(F, "  \"execs\": %u,\n", Scale.ExecutionsPerPath);
  std::fprintf(F, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(Scale.Seed));
  std::fprintf(F, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(F, "  \"build_type\": \"%s\",\n", BenchBuildType);
  std::fprintf(F, "  \"inference_cold_mean_ms\": %.4f,\n", ColdMean);
  std::fprintf(F, "  \"inference_warm_mean_ms\": %.4f,\n", WarmMean);
  std::fprintf(F, "  \"embeddings_bitwise_identical\": %s,\n",
               BitwiseIdentical ? "true" : "false");
  std::fprintf(F,
               "  \"embedding_cache\": {\"stmt_hits\": %llu, "
               "\"stmt_misses\": %llu, \"state_hits\": %llu, "
               "\"state_misses\": %llu},\n",
               (unsigned long long)EmbCache.StmtHits,
               (unsigned long long)EmbCache.StmtMisses,
               (unsigned long long)EmbCache.StateHits,
               (unsigned long long)EmbCache.StateMisses);
  std::fprintf(F, "  \"burst_methods\": %zu,\n", Burst.size());
  auto EmitCells = [F](const char *Key, const std::vector<SweepCell> &Cells,
                       bool Last) {
    std::fprintf(F, "  \"%s\": [\n", Key);
    for (size_t I = 0; I < Cells.size(); ++I) {
      const SweepCell &C = Cells[I];
      std::fprintf(F,
                   "    {\"workers\": %zu, \"seconds\": %.3f, \"qps\": %.1f, "
                   "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"cache_hits\": %llu, "
                   "\"cache_misses\": %llu}%s\n",
                   C.Workers, C.Seconds, C.Qps, C.P50, C.P99,
                   (unsigned long long)C.CacheHits,
                   (unsigned long long)C.CacheMisses,
                   I + 1 < Cells.size() ? "," : "");
    }
    std::fprintf(F, "  ]%s\n", Last ? "" : ",");
  };
  EmitCells("sweep_cold", Cold, /*Last=*/false);
  EmitCells("sweep_warm", Warm, /*Last=*/true);
  std::fprintf(F, "}\n");
  std::fclose(F);
  std::printf("wrote BENCH_serve.json\n");

  return (BitwiseIdentical && WarmAllHits && SweepAllOk) ? 0 : 1;
}
