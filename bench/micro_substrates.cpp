//===-- bench/micro_substrates.cpp - Substrate micro-benchmarks -----------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark microbenchmarks for the substrates (not a paper
// table): front-end parsing, instrumented interpretation, symbolic path
// enumeration, trace collection, tensor ops, SIMD kernels, the tanh
// and sigmoid maps, fused recurrent-cell steps, lockstep-batched
// sequences and decodes, fused attention reads, and a full LIGER
// forward/backward step.
// Useful for tracking performance regressions of the pipeline that
// every experiment sits on.
//
// Beyond the standard google-benchmark flags, the custom main accepts:
//   --kernels-only   run only the kernel / cell-step / sequence benches
//   --attention-only run only the attention / decoder / LIGER benches
//                    (BENCH_attention.json is their evidence file)
//   --smoke          short measurement time (CI / verify script)
//   --json=PATH      write the google-benchmark JSON report to PATH
//                    (BENCH_kernels.json is the conventional evidence
//                    file for the kernel suite)
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "models/Liger.h"
#include "nn/Optim.h"
#include "symx/SymExec.h"
#include "testgen/TraceCollector.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace liger;

namespace {

const char *SortSource = R"(
int[] sortIII(int[] A)
{
  int swapbit = 1;
  while (swapbit != 0) {
    swapbit = 0;
    for (int i = 0; i < len(A) - 1; i++) {
      if (A[i] > A[i + 1]) {
        int tmp = A[i];
        A[i] = A[i + 1];
        A[i + 1] = tmp;
        swapbit = 1;
      }
    }
  }
  return A;
}
)";

Program &sortProgram() {
  static Program P = [] {
    DiagnosticSink Diags;
    return std::move(*parseAndCheck(SortSource, Diags));
  }();
  return P;
}

std::vector<Value> paperInput() {
  return {Value::makeArray({Value::makeInt(8), Value::makeInt(5),
                            Value::makeInt(1), Value::makeInt(4),
                            Value::makeInt(3)})};
}

void BM_ParseAndTypeCheck(benchmark::State &State) {
  for (auto _ : State) {
    DiagnosticSink Diags;
    auto P = parseAndCheck(SortSource, Diags);
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_ParseAndTypeCheck);

void BM_InterpretInstrumented(benchmark::State &State) {
  Program &P = sortProgram();
  for (auto _ : State) {
    ExecResult R = execute(P, P.Functions[0], paperInput());
    benchmark::DoNotOptimize(R.Steps.size());
  }
}
BENCHMARK(BM_InterpretInstrumented);

void BM_InterpretStatesOff(benchmark::State &State) {
  Program &P = sortProgram();
  InterpOptions Options;
  Options.RecordStates = false;
  for (auto _ : State) {
    ExecResult R = execute(P, P.Functions[0], paperInput(), Options);
    benchmark::DoNotOptimize(R.Steps.size());
  }
}
BENCHMARK(BM_InterpretStatesOff);

void BM_SymbolicEnumeration(benchmark::State &State) {
  Program &P = sortProgram();
  SymxOptions Options;
  Options.ArrayLengths = {3};
  Options.MaxPaths = 8;
  for (auto _ : State) {
    auto Paths = enumeratePaths(P, P.Functions[0], Options);
    benchmark::DoNotOptimize(Paths.size());
  }
}
BENCHMARK(BM_SymbolicEnumeration);

void BM_CollectTraces(benchmark::State &State) {
  Program &P = sortProgram();
  TestGenOptions Options;
  Options.TargetPaths = 6;
  Options.ExecutionsPerPath = 3;
  for (auto _ : State) {
    MethodTraces Traces = collectTraces(P, P.Functions[0], Options);
    benchmark::DoNotOptimize(Traces.totalExecutions());
  }
}
BENCHMARK(BM_CollectTraces);

void BM_MatvecHidden(benchmark::State &State) {
  size_t H = static_cast<size_t>(State.range(0));
  Rng R(1);
  // Inputs live on the default arena, outside the per-iteration scope.
  Var M = parameter(Tensor::xavier(H, H, R));
  Var X = constant(Tensor::uniform(H, 1.0f, R));
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  for (auto _ : State) {
    Var Y = matvec(M, X);
    benchmark::DoNotOptimize(Y->Value[0]);
    Arena.reset();
  }
}
BENCHMARK(BM_MatvecHidden)->Arg(32)->Arg(64)->Arg(128);

//===----------------------------------------------------------------------===//
// Raw kernel benches (no graph): the SIMD substrate itself.
//===----------------------------------------------------------------------===//

void BM_KernelDot(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  Rng R(1);
  Tensor A = Tensor::uniform(N, 1.0f, R);
  Tensor B = Tensor::uniform(N, 1.0f, R);
  for (auto _ : State) {
    float S = kernels::dot(N, A.data(), B.data());
    benchmark::DoNotOptimize(S);
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_KernelDot)->Arg(64)->Arg(256)->Arg(1024);

// One gate at a time over a packed [4H x H] matrix...
void BM_KernelMatvecPerGate(benchmark::State &State) {
  size_t H = static_cast<size_t>(State.range(0));
  Rng R(1);
  Tensor W = Tensor::xavier(4 * H, H, R);
  Tensor X = Tensor::uniform(H, 1.0f, R);
  Tensor Y = Tensor::raw(4 * H);
  for (auto _ : State) {
    for (size_t G = 0; G < 4; ++G)
      kernels::matvec(H, H, W.data() + G * H * H, X.data(), Y.data() + G * H);
    benchmark::DoNotOptimize(Y.data()[0]);
  }
  State.SetItemsProcessed(State.iterations() * 4 * H * H);
}
BENCHMARK(BM_KernelMatvecPerGate)->Arg(32)->Arg(64)->Arg(128);

// ... versus all four gates in one packed pass.
void BM_KernelMatvecN(benchmark::State &State) {
  size_t H = static_cast<size_t>(State.range(0));
  Rng R(1);
  Tensor W = Tensor::xavier(4 * H, H, R);
  Tensor X = Tensor::uniform(H, 1.0f, R);
  Tensor Y = Tensor::raw(4 * H);
  for (auto _ : State) {
    kernels::matvecN(4, H, H, W.data(), X.data(), Y.data());
    benchmark::DoNotOptimize(Y.data()[0]);
  }
  State.SetItemsProcessed(State.iterations() * 4 * H * H);
}
BENCHMARK(BM_KernelMatvecN)->Arg(32)->Arg(64)->Arg(128);

void BM_KernelAxpy(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  Rng R(1);
  Tensor X = Tensor::uniform(N, 1.0f, R);
  Tensor Y = Tensor::uniform(N, 1.0f, R);
  for (auto _ : State) {
    kernels::axpy(N, 0.5f, X.data(), Y.data());
    benchmark::DoNotOptimize(Y.data()[0]);
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_KernelAxpy)->Arg(256)->Arg(1024);

// The activation maps every cell and attention op runs: one hidden
// vector (24) and a decoder attention block (2048). Bitwise equal to
// libm in both builds; the scalar build's numbers are libm's own cost.
template <void (*Map)(size_t, const float *, float *)>
void BM_ActivationMap(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  Rng R(1);
  Tensor X = Tensor::uniform(N, 3.0f, R);
  Tensor Y = Tensor::raw(N);
  for (auto _ : State) {
    Map(N, X.data(), Y.data());
    benchmark::DoNotOptimize(Y.data());
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations() * N);
}
void BM_TanhMap(benchmark::State &State) {
  BM_ActivationMap<kernels::tanhMap>(State);
}
void BM_SigmoidMap(benchmark::State &State) {
  BM_ActivationMap<kernels::sigmoidMap>(State);
}
BENCHMARK(BM_TanhMap)->Arg(24)->Arg(2048);
BENCHMARK(BM_SigmoidMap)->Arg(24)->Arg(2048);

// The GEMM substrate: B stacked [4H x H] gate projections as one tiled
// matmul (Arg(1)) versus the same rows as a per-vector matvecStrided
// loop (Arg(0)). Outputs are bitwise-identical; the delta is the
// register tile's reuse of loaded M rows across vectors.
void BM_MatmulTiled(benchmark::State &State) {
  bool Tiled = State.range(1) != 0;
  size_t H = 100;
  size_t B = static_cast<size_t>(State.range(0));
  Rng R(1);
  Tensor W = Tensor::xavier(4 * H, H, R);
  Tensor X = Tensor::uniform(B * H, 1.0f, R);
  Tensor Y = Tensor::raw(B, 4 * H);
  for (auto _ : State) {
    if (Tiled) {
      kernels::matmul(B, 4 * H, H, W.data(), H, X.data(), H, Y.data(),
                      4 * H);
    } else {
      for (size_t Bi = 0; Bi < B; ++Bi)
        kernels::matvecStrided(4 * H, H, H, W.data(), X.data() + Bi * H,
                               Y.data() + Bi * 4 * H);
    }
    benchmark::DoNotOptimize(Y.data()[0]);
  }
  State.SetItemsProcessed(State.iterations() * B * 4 * H * H);
}
BENCHMARK(BM_MatmulTiled)
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({8, 0})
    ->Args({8, 1});

//===----------------------------------------------------------------------===//
// Fused GRU steps: one graph node per step. Their per-gate reference
// graph is the equivalence oracle in tests/ReferenceGraphs;
// EXPERIMENTS.md records the fused speed-up.
//===----------------------------------------------------------------------===//

void BM_GruCellForward(benchmark::State &State) {
  Rng R(1);
  ParamStore Store;
  RecurrentCell Cell(Store, "cell", 32, 32, R);
  std::vector<Var> Inputs;
  for (int I = 0; I < 8; ++I)
    Inputs.push_back(constant(Tensor::uniform(32, 1.0f, R)));
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  for (auto _ : State) {
    auto States = Cell.run(Inputs);
    benchmark::DoNotOptimize(States.back()->Value[0]);
    Arena.reset();
  }
}
BENCHMARK(BM_GruCellForward);

// Arg: the hidden and input size; 24 is the experiments' default.
void BM_GruCellForwardBackward(benchmark::State &State) {
  size_t H = static_cast<size_t>(State.range(0));
  Rng R(1);
  ParamStore Store;
  RecurrentCell Cell(Store, "cell", H, H, R);
  std::vector<Var> Inputs;
  for (int I = 0; I < 8; ++I)
    Inputs.push_back(constant(Tensor::uniform(H, 1.0f, R)));
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  for (auto _ : State) {
    auto States = Cell.run(Inputs);
    backward(dot(States.back(), States.back()));
    Store.zeroGrads();
    Arena.reset();
  }
}
BENCHMARK(BM_GruCellForwardBackward)->Arg(32)->Arg(24);

void BM_GruSequence(benchmark::State &State) {
  Rng R(1);
  ParamStore Store;
  RecurrentCell Cell(Store, "gru", 32, 32, R);
  std::vector<Var> Inputs;
  for (int I = 0; I < 30; ++I)
    Inputs.push_back(constant(Tensor::uniform(32, 1.0f, R)));
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  for (auto _ : State) {
    auto States = Cell.run(Inputs);
    benchmark::DoNotOptimize(States.back()->Value[0]);
    Arena.reset();
  }
}
BENCHMARK(BM_GruSequence);

// B concurrently-advancing 30-step sequences in lockstep, forward +
// backward, at hidden and input size H (Args {B, batched, H}; H 24 is
// the experiments' default): batched 1 routes each timestep through
// stepBatch (the matmul-backed batch op with the fused descending-lane
// batch backward), batched 0 through a per-sample step() loop.
// Bitwise-identical states and gradients. Both schedules make the same
// per-lane input-gradient passes (matvecTAcc); the batch op saves in
// its forward, where matmul's register tile feeds each loaded weight
// chunk to two lanes, and in its weight-gradient backward, which walks
// each shared gradient matrix once for all lanes instead of loading and
// storing it once per lane.
void BM_GruSequenceBatched(benchmark::State &State) {
  size_t B = static_cast<size_t>(State.range(0));
  bool Batched = State.range(1) != 0;
  size_t H = static_cast<size_t>(State.range(2));
  Rng R(1);
  ParamStore Store;
  RecurrentCell Cell(Store, "gru", H, H, R);
  std::vector<std::vector<Var>> Inputs(30);
  for (auto &Step : Inputs)
    for (size_t I = 0; I < B; ++I)
      Step.push_back(constant(Tensor::uniform(H, 1.0f, R)));
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  for (auto _ : State) {
    std::vector<Var> States(B);
    for (size_t I = 0; I < B; ++I)
      States[I] = Cell.initial();
    for (const std::vector<Var> &Step : Inputs) {
      if (Batched) {
        States = Cell.stepBatch(Step, States);
      } else {
        for (size_t I = 0; I < B; ++I)
          States[I] = Cell.step(Step[I], States[I]);
      }
    }
    std::vector<Var> Norms;
    Norms.reserve(B);
    for (const Var &S : States)
      Norms.push_back(dot(S, S));
    backward(sumV(stackScalars(Norms)));
    benchmark::DoNotOptimize(States.back()->Value[0]);
    Store.zeroGrads();
    Arena.reset();
  }
  State.SetItemsProcessed(State.iterations() * B * Inputs.size());
}
BENCHMARK(BM_GruSequenceBatched)
    ->Args({1, 1, 100})
    ->Args({3, 0, 100})
    ->Args({3, 1, 100})
    ->Args({8, 0, 100})
    ->Args({8, 1, 100})
    ->Args({24, 0, 100})
    ->Args({24, 1, 100})
    ->Args({8, 0, 24})
    ->Args({8, 1, 24})
    ->Args({24, 0, 24})
    ->Args({24, 1, 24});

//===----------------------------------------------------------------------===//
// Fused attention: one key-projection node per memory plus one
// softmax-context node per read. The per-pair reference graph is the
// oracle in tests/ReferenceGraphs; EXPERIMENTS.md records the speed-up.
//===----------------------------------------------------------------------===//

void BM_AttentionScore(benchmark::State &State) {
  // One attention read over a 16-vector memory, forward + backward:
  // the LIGER fusion-site shape (fresh prepare every step).
  Rng R(1);
  ParamStore Store;
  const size_t Dim = 32, T = 16;
  AttentionScorer Attn(Store, "attn", Dim, Dim, Dim, R);
  Var Query = constant(Tensor::uniform(Dim, 1.0f, R));
  std::vector<Var> Keys;
  for (size_t I = 0; I < T; ++I)
    Keys.push_back(constant(Tensor::uniform(Dim, 1.0f, R)));
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  for (auto _ : State) {
    AttentionScorer::Memory Mem = Attn.prepare(Keys);
    AttentionScorer::Result Out = Attn.contextOf(Query, Mem);
    backward(dot(Out.Context, Out.Context));
    Store.zeroGrads();
    Arena.reset();
  }
  State.SetItemsProcessed(State.iterations() * T);
}
BENCHMARK(BM_AttentionScore);

void BM_DecoderStep(benchmark::State &State) {
  // Teacher-forced decode over a 20-vector memory, forward + backward:
  // the SeqDecoder shape, where the key-side projections are computed
  // once per decode and shared by every step. Mode 1 = one lane, whose
  // lossBatch calls each op with one lane, 2 = four lanes decoded in
  // lockstep; items are normalized per decode step, so /1 vs /2 is the
  // per-step batching gain.
  const int Mode = static_cast<int>(State.range(0));
  const size_t Lanes = Mode == 2 ? 4 : 1;
  Rng R(1);
  ParamStore Store;
  SeqDecoderConfig Config;
  Config.TargetVocabSize = 100;
  Config.EmbedDim = 100;
  Config.Hidden = 100;
  Config.AttnHidden = 100;
  Config.MemoryDim = 100;
  Config.InitDim = 100;
  SeqDecoder Decoder(Store, "dec", Config, R);
  GraphEncoding Enc;
  Enc.ProgramEmbedding = constant(Tensor::uniform(Config.InitDim, 1.0f, R));
  for (int I = 0; I < 20; ++I)
    Enc.Memory.push_back(constant(Tensor::uniform(Config.MemoryDim, 1.0f, R)));
  std::vector<int> Targets = {4, 5, 6, 7, 8, Vocabulary::Eos};
  std::vector<GraphEncoding> Encs(Lanes, Enc);
  std::vector<std::vector<int>> AllTargets(Lanes, Targets);
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  for (auto _ : State) {
    std::vector<Var> Losses = Decoder.lossBatch(Encs, AllTargets);
    backward(Lanes == 1 ? Losses[0] : sumV(stackScalars(Losses)));
    benchmark::DoNotOptimize(Losses[0]->Value[0]);
    Store.zeroGrads();
    Arena.reset();
  }
  // Report per-decode-step; one iteration = Lanes * Targets.size() steps.
  State.SetItemsProcessed(State.iterations() * Lanes * Targets.size());
}
BENCHMARK(BM_DecoderStep)->Arg(1)->Arg(2);

void BM_ArenaGraphChurn(benchmark::State &State) {
  // Build-and-reset cost of a deep elementwise chain: isolates node
  // allocation, tensor-pool traffic, and arena reset from model math.
  Rng R(1);
  Var X = constant(Tensor::uniform(64, 1.0f, R));
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  for (auto _ : State) {
    Var Y = X;
    for (int I = 0; I < 100; ++I)
      Y = tanhV(scale(Y, 0.99f));
    benchmark::DoNotOptimize(Y->Value[0]);
    Arena.reset();
  }
}
BENCHMARK(BM_ArenaGraphChurn);

void BM_LigerForwardBackward(benchmark::State &State) {
  Program &P = sortProgram();
  TestGenOptions Gen;
  Gen.TargetPaths = 6;
  Gen.ExecutionsPerPath = 3;
  MethodSample Sample;
  Sample.Fn = &P.Functions[0];
  Sample.Traces = collectTraces(P, P.Functions[0], Gen);
  Sample.NameSubtokens = {"sort", "array"};

  Vocabulary Joint, Target;
  addSampleToVocabulary(Sample, Joint);
  addNameToVocabulary(Sample, Target);
  Joint.freeze();
  Target.freeze();

  LigerConfig Config;
  Config.EmbedDim = 100;
  Config.Hidden = 100;
  Config.AttnHidden = 100;
  LigerNamePredictor Net(Joint, Target, Config, 1);
  // Arg 0 = one sample per iteration through loss() (the trajectory
  // point tracked since the shared_ptr-graph rewrite); arg N > 0 = N
  // samples per iteration encoded and decoded in lockstep through
  // lossBatch. Items are per sample, so /0 vs /N items-per-second is
  // the end-to-end batching gain.
  const bool Batched = State.range(0) != 0;
  const size_t Group = Batched ? static_cast<size_t>(State.range(0)) : 1;
  std::vector<const MethodSample *> Samples(Group, &Sample);
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  for (auto _ : State) {
    if (Batched) {
      std::vector<Var> Losses = Net.lossBatch(Samples);
      backward(sumV(stackScalars(Losses)));
      benchmark::DoNotOptimize(Losses[0]->Value[0]);
    } else {
      Var Loss = Net.loss(Sample);
      backward(Loss);
      benchmark::DoNotOptimize(Loss->Value[0]);
    }
    Net.params().zeroGrads();
    Arena.reset();
  }
  State.SetItemsProcessed(State.iterations() * Group);
}
// Group 4 captures the batching win on one core; wider groups (8+)
// only plateau — the live graph outgrows the cache working set about
// as fast as the matmuls widen.
BENCHMARK(BM_LigerForwardBackward)->Arg(0)->Arg(4);

} // namespace

// Whether this binary's own code was compiled optimized. The checked-in
// BENCH_*.json evidence files must come from optimized builds; the
// packaged google-benchmark library reports its *own* build type
// ("library_build_type"), which says nothing about our kernels.
#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool OptimizedBenchBuild = true;
#else
constexpr bool OptimizedBenchBuild = false;
#endif

// Custom main: thin convenience flags on top of google-benchmark (see
// the file header), everything else forwarded untouched. Also accepts
//   --allow-unoptimized  benchmark a non-optimized build anyway (the
//                        default is to refuse, so debug numbers can't
//                        land in the evidence files unnoticed)
int main(int argc, char **argv) {
  bool KernelsOnly = false, AttentionOnly = false, Smoke = false;
  bool AllowUnoptimized = false;
  std::string JsonPath;
  std::vector<char *> Args;
  for (int I = 0; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--kernels-only") {
      KernelsOnly = true;
    } else if (A == "--attention-only") {
      AttentionOnly = true;
    } else if (A == "--smoke") {
      Smoke = true;
    } else if (A == "--allow-unoptimized") {
      AllowUnoptimized = true;
    } else if (A.rfind("--json=", 0) == 0) {
      JsonPath = A.substr(7);
    } else {
      Args.push_back(argv[I]);
    }
  }
  if (!OptimizedBenchBuild && !AllowUnoptimized) {
    std::fprintf(stderr,
                 "refusing to benchmark: this binary was compiled without "
                 "optimization (assertions on or -O0). Re-run cmake with "
                 "-DCMAKE_BUILD_TYPE=Release (or RelWithDebInfo), or pass "
                 "--allow-unoptimized to measure anyway.\n");
    return 2;
  }
  if (!OptimizedBenchBuild)
    std::fprintf(stderr, "warning: benchmarking an UNOPTIMIZED build "
                         "(--allow-unoptimized); do not check these "
                         "numbers in as evidence\n");
  // Report our build's provenance next to google-benchmark's own
  // "library_build_type" so the JSON is self-describing.
  benchmark::AddCustomContext("liger_build_type",
                              OptimizedBenchBuild ? "optimized"
                                                  : "unoptimized");
#if defined(LIGER_SIMD_AVX2)
  benchmark::AddCustomContext("liger_kernels", "avx2");
#else
  benchmark::AddCustomContext("liger_kernels", "scalar");
#endif
  std::vector<std::string> Injected;
  if (KernelsOnly)
    Injected.push_back("--benchmark_filter="
                       "BM_Kernel|BM_TanhMap|BM_SigmoidMap|BM_Matmul|"
                       "BM_GruCell|"
                       "BM_MatvecHidden|BM_GruSequence|BM_AttentionScore|"
                       "BM_DecoderStep|BM_LigerForwardBackward");
  if (AttentionOnly)
    Injected.push_back("--benchmark_filter="
                       "BM_AttentionScore|BM_DecoderStep|"
                       "BM_LigerForwardBackward");
  if (Smoke)
    Injected.push_back("--benchmark_min_time=0.02");
  if (!JsonPath.empty()) {
    Injected.push_back("--benchmark_out=" + JsonPath);
    Injected.push_back("--benchmark_out_format=json");
  }
  for (std::string &S : Injected)
    Args.push_back(S.data());
  int Argc = static_cast<int>(Args.size());
  Args.push_back(nullptr);
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
