//===-- perfbench/src/Train.cpp - The train workload ----------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// Trains the LIGER name predictor through trainNameModel, one epoch per
// run, with lockstep batches split into 4 shards on min(4, nproc)
// threads and no validation selection. The corpus is the experiments' mini-med corpus at its
// fixed corpus seed: samples/s varies by tens of percent between
// corpora of this size, which would drown every change in input noise.
// The run seed picks the initial weights and the shuffle order.
//
// The traced epoch loop re-implements the batched epoch loop of
// eval/Training.cpp from the same public calls and must reproduce the
// untraced final loss bit for bit.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workloads.h"

#include "eval/Experiments.h"
#include "nn/GraphArena.h"
#include "serve/Serve.h"
#include "support/Stopwatch.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cstring>

using namespace liger;
using namespace perfbench;

namespace {

constexpr uint64_t MiniMedCorpusSeed = 7;
constexpr size_t EpochsPerRun = 1;
constexpr size_t SetupRepeats = 9;
/// Runs measured at least, whatever the time: one latency sample each,
/// so the reported tail percentile is the same in every run.
constexpr size_t MinRuns = 40;
/// peak_rss_mb is the median peak of the first this many training runs:
/// the process grows with every run, so a fixed count keeps it
/// independent of the machine's speed.
constexpr size_t RssRuns = 9;

ExperimentScale trainScale() {
  ExperimentScale Scale;
  Scale.Seed = MiniMedCorpusSeed;
  Scale.Threads = benchThreads();
  Scale.Epochs = EpochsPerRun;
  Scale.BatchedSamples = true;
  Scale.LockstepShards = 4;
  return Scale;
}

TrainOptions trainOptions(const ExperimentScale &Scale, uint64_t ModelSeed) {
  TrainOptions Options = Scale.trainOptions();
  Options.Seed = ModelSeed;
  Options.SelectBestOnValidation = false;
  return Options;
}

bool sameBits(double A, double B) { return std::memcmp(&A, &B, sizeof A) == 0; }

/// The batched epoch loop of eval/Training.cpp (runEpochBatched under
/// runTrainingLoop), with a span around each call into models and nn.
/// Returns the final epoch's mean loss.
double trainTraced(const NameTask &Task, const LigerConfig &Config,
                   const TrainOptions &Options, uint64_t ModelSeed,
                   SpanRecorder &Rec, uint64_t &Steps,
                   std::atomic<size_t> &PeakNodes) {
  LigerNamePredictor Net(Task.Joint, Task.Target, Config, ModelSeed);
  ParamStore &Store = Net.params();
  AdamOptions AdamOpts;
  AdamOpts.LearningRate = Options.LearningRate;
  AdamOpts.ClipNorm = Options.ClipNorm;
  Adam Opt(Store, AdamOpts);
  Rng R(Options.Seed);
  std::unique_ptr<ThreadPool> Pool;
  if (Options.Threads > 1)
    Pool = std::make_unique<ThreadPool>(Options.Threads);

  const std::vector<MethodSample> &Train = Task.Split.Train;
  double EpochLoss = 0;
  for (size_t Epoch = 0; Epoch < Options.Epochs; ++Epoch) {
    ScopedSpan EpochSpan(&Rec, "eval.epoch", Epoch);
    std::vector<size_t> Order(Train.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    R.shuffle(Order);

    GraphArena EpochArena;
    GraphArena::Scope EpochScope(EpochArena);
    size_t MaxShards = std::max<size_t>(1, Options.LockstepShards);
    std::vector<GradSink> Sinks(MaxShards);
    std::vector<double> ShardLoss(MaxShards);

    EpochLoss = 0;
    for (size_t Begin = 0; Begin < Order.size(); Begin += Options.BatchSize) {
      uint64_t Step = ++Steps;
      ScopedSpan StepSpan(&Rec, "eval.step", Step);
      size_t B = std::min(Order.size(), Begin + Options.BatchSize) - Begin;
      size_t S = std::min(MaxShards, B);
      auto Work = [&](size_t K) {
        ScopedSpan Shard(&Rec, "eval.shard", Step, StepSpan.id());
        size_t Lo = K * B / S, Hi = (K + 1) * B / S;
        Sinks[K].clear();
        std::vector<const MethodSample *> Group;
        Group.reserve(Hi - Lo);
        for (size_t I = Lo; I < Hi; ++I)
          Group.push_back(&Train[Order[Begin + I]]);
        std::vector<Var> SampleLosses;
        {
          ScopedSpan Span(&Rec, "models.loss_forward", Step);
          SampleLosses = Net.lossBatch(Group);
        }
        double Total = 0;
        for (const Var &L : SampleLosses)
          Total += static_cast<double>(L->Value[0]);
        ShardLoss[K] = Total;
        Var Sum;
        {
          ScopedSpan Span(&Rec, "nn.loss_sum", Step);
          Sum = sumV(stackScalars(SampleLosses));
        }
        {
          ScopedSpan Span(&Rec, "nn.backward", Step);
          backward(Sum, Sinks[K]);
        }
        size_t Peak = GraphArena::current().peakLive();
        size_t Seen = PeakNodes.load();
        while (Peak > Seen && !PeakNodes.compare_exchange_weak(Seen, Peak))
          ;
        ScopedSpan Span(&Rec, "nn.arena_reset", Step);
        GraphArena::current().reset();
      };
      if (Pool)
        Pool->run(S, Work);
      else
        for (size_t K = 0; K < S; ++K)
          Work(K);

      {
        ScopedSpan Span(&Rec, "nn.sink_reduce", Step);
        for (size_t K = 0; K < S; ++K) {
          Store.accumulateSink(Sinks[K]);
          EpochLoss += ShardLoss[K];
        }
        Store.scaleGrads(1.0f / static_cast<float>(B));
      }
      ScopedSpan Span(&Rec, "nn.adam", Step);
      Opt.step();
    }
  }
  return Train.empty() ? 0.0 : EpochLoss / static_cast<double>(Train.size());
}

} // namespace

void perfbench::runTrain(const RunOptions &Run, Report &Out) {
  ExperimentScale Scale = trainScale();
  LigerConfig Config = serveLigerConfig(Scale);
  uint64_t ModelSeed = deriveSeed(Run.Seed, "train-model");

  // Set-up: corpus with its trace construction, vocabularies, model
  // init. Repeats must rebuild the identical corpus.
  NameTask Task;
  uint64_t Fingerprint = 0;
  for (size_t I = 0; I < SetupRepeats; ++I) {
    Stopwatch Timer;
    NameTask Built = buildNameTask(Scale, /*Large=*/false);
    LigerNamePredictor Net(Built.Joint, Built.Target, Config, ModelSeed);
    Out.addSetup(Timer.seconds());
    uint64_t F = corpusFingerprint(Built.Split.Train);
    if (I == 0)
      Fingerprint = F;
    Out.Outcomes.check(F == Fingerprint,
                       "set-up rebuilt a different training corpus");
    Task = std::move(Built);
  }
  const std::vector<MethodSample> &Train = Task.Split.Train;
  double SamplesPerRun = static_cast<double>(Train.size() * EpochsPerRun);
  double Paths = 0;
  for (const MethodSample &S : Train)
    Paths += static_cast<double>(S.Traces.Paths.size());
  Out.value("train_samples", static_cast<double>(Train.size()));
  Out.value("models.paths_per_sample", Train.empty() ? 0 : Paths / Train.size());

  TrainOptions Options = trainOptions(Scale, ModelSeed);
  double UntracedSeconds = Run.Trace ? Run.Seconds / 2 : Run.Seconds;

  // Untraced: whole trainNameModel runs from the same seed; every final
  // loss must equal the first bit for bit.
  std::vector<double> &StepMs = Out.series("step_ms");
  std::vector<double> &RunMs = Out.series("op_ms");
  std::vector<double> &Rate = Out.series("rate");
  double Loss = 0;
  Stopwatch Phase;
  for (size_t Runs = 0; Runs < MinRuns || Phase.seconds() < UntracedSeconds;
       ++Runs) {
    LigerNamePredictor Net(Task.Joint, Task.Target, Config, ModelSeed);
    NameModelHooks Hooks;
    Hooks.LossBatch = [&](const std::vector<const MethodSample *> &Group) {
      return Net.lossBatch(Group);
    };
    Hooks.Params = &Net.params();
    if (Runs < RssRuns)
      resetPeakRss();
    Stopwatch Timer;
    double Last = 0;
    TrainOptions Timed = Options;
    Timed.StepHook = [&](size_t, size_t) {
      double Now = Timer.seconds();
      StepMs.push_back((Now - Last) * 1e3);
      Last = Now;
    };
    TrainResult Result = trainNameModel(Hooks, Train, {}, Timed);
    double Seconds = Timer.seconds();
    RunMs.push_back(Seconds * 1e3);
    Rate.push_back(SamplesPerRun / Seconds);
    if (Runs < RssRuns)
      Out.series("rss_mb").push_back(peakRssMb());
    if (Runs == 0)
      Loss = Result.FinalTrainLoss;
    Out.Outcomes.check(sameBits(Result.FinalTrainLoss, Loss),
                       "final loss differs between runs of one seed");
  }
  Out.value("final_loss", Loss);
  Out.value("min_samples", MinRuns);
  if (!Run.Trace)
    return;

  // Traced: the benchmark's own epoch loop; must match bit for bit.
  SpanRecorder Rec;
  std::vector<double> &TracedRate = Out.series("traced_rate");
  uint64_t Steps = 0;
  std::atomic<size_t> PeakNodes{0};
  Phase.reset();
  {
    ScopedSpan Root(&Rec, "bench.train");
    for (size_t Runs = 0; Runs == 0 || Phase.seconds() < Run.Seconds / 2;
         ++Runs) {
      Stopwatch Timer;
      double Traced =
          trainTraced(Task, Config, Options, ModelSeed, Rec, Steps, PeakNodes);
      TracedRate.push_back(SamplesPerRun / Timer.seconds());
      Out.Outcomes.check(sameBits(Traced, Loss),
                         "traced epoch loop's final loss differs from "
                         "trainNameModel's");
    }
  }
  Out.value("eval.steps", static_cast<double>(Steps));
  Out.value("nn.peak_graph_nodes", static_cast<double>(PeakNodes.load()));
  std::string SpanFile = Run.WorkDir + "/spans.tsv";
  Out.Outcomes.check(Rec.write(SpanFile), "cannot write " + SpanFile);
  Out.info("spans", SpanFile);
}
