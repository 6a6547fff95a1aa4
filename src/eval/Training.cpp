//===-- eval/Training.cpp - Model-agnostic training loops ------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "eval/Training.h"

#include "nn/Checkpoint.h"
#include "support/BinaryIO.h"
#include "support/Stopwatch.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace liger;

namespace {

std::vector<Tensor> snapshotParams(const ParamStore &Store) {
  std::vector<Tensor> Out;
  Out.reserve(Store.params().size());
  for (const Var &P : Store.params())
    Out.push_back(P->Value);
  return Out;
}

void restoreParams(ParamStore &Store, const std::vector<Tensor> &Snapshot) {
  LIGER_CHECK(Snapshot.size() == Store.params().size(),
              "snapshot/store size mismatch");
  for (size_t I = 0; I < Snapshot.size(); ++I)
    Store.params()[I]->Value = Snapshot[I];
}

/// The one epoch loop: shuffled mini-batches, mean loss, Adam step.
///
/// Each mini-batch is split into \p Shards contiguous sample shards,
/// each built as its own graph by \p Loss (one loss per sample) and
/// differentiated once, from the sum of its losses, into the shard's
/// sink; its arena is reset right after. Shards are the units the
/// ThreadPool distributes (parameters are read-only during the batch),
/// and the calling thread reduces the shard sinks in shard (= sample)
/// order, scales by 1/B and steps Adam once. The partition depends only
/// on B, never on the thread count, so the result is bitwise-identical
/// for any thread count.
///
/// Per-sample training is one sample per shard (Shards = BatchSize):
/// every sample's gradient lands in its own sink. A lockstep LossBatch
/// hook takes several samples per shard, and then one backward per
/// shard over its summed loss — not one per sample — is load-bearing:
/// the shard's samples share graph nodes (batch cell steps, cross-sample
/// state embeddings, and non-parameter node gradients persist within an
/// arena generation), so repeated per-sample backwards over the
/// combined graph would double-count every shared subgraph. Different
/// shard counts order gradient accumulation differently, so they are
/// not bitwise comparable with each other.
double runEpochBatched(const std::vector<MethodSample> &Train,
                       size_t BatchSize, size_t Shards,
                       const BatchLossFn &Loss, ParamStore &Store, Adam &Opt,
                       Rng &R, ThreadPool *Pool, size_t EpochIndex,
                       const std::function<void(size_t, size_t)> &StepHook) {
  std::vector<size_t> Order(Train.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  R.shuffle(Order);

  // Serial (and pool-of-zero) execution runs inline on this thread on
  // a dedicated scoped arena; pool workers use their own per-thread
  // default arenas. Either way every shard resets the arena it built
  // on right after its backward.
  GraphArena EpochArena;
  GraphArena::Scope EpochScope(EpochArena);

  // No batch has more shards than samples.
  size_t MaxShards =
      std::max<size_t>(1, std::min({Shards, BatchSize, Order.size()}));
  std::vector<GradSink> Sinks(MaxShards);
  std::vector<double> ShardLoss(MaxShards);

  double EpochLoss = 0;
  for (size_t Begin = 0; Begin < Order.size(); Begin += BatchSize) {
    size_t B = std::min(Order.size(), Begin + BatchSize) - Begin;
    size_t S = std::min(MaxShards, B);
    auto Work = [&](size_t K) {
      // Contiguous shard [Begin + Lo, Begin + Hi) of the shuffled
      // batch; the bounds are a pure function of (B, S, K).
      size_t Lo = K * B / S, Hi = (K + 1) * B / S;
      Sinks[K].clear();
      std::vector<const MethodSample *> Group;
      Group.reserve(Hi - Lo);
      for (size_t I = Lo; I < Hi; ++I)
        Group.push_back(&Train[Order[Begin + I]]);
      std::vector<Var> SampleLosses = Loss(Group);
      LIGER_CHECK(SampleLosses.size() == Group.size(),
                  "batched loss hook must return one loss per sample");
      double Total = 0;
      for (const Var &L : SampleLosses)
        Total += static_cast<double>(L->Value[0]);
      ShardLoss[K] = Total;
      Var Sum = sumV(stackScalars(SampleLosses));
      backward(Sum, Sinks[K]);
      GraphArena::current().reset();
    };
    if (Pool)
      Pool->run(S, Work);
    else
      for (size_t K = 0; K < S; ++K)
        Work(K);

    for (size_t K = 0; K < S; ++K) {
      Store.accumulateSink(Sinks[K]);
      EpochLoss += ShardLoss[K];
    }
    Store.scaleGrads(1.0f / static_cast<float>(B));
    Opt.step();
    if (StepHook)
      StepHook(EpochIndex, Begin / BatchSize);
  }
  return Order.empty() ? 0.0 : EpochLoss / static_cast<double>(Order.size());
}

/// Adapts a per-sample loss hook to the epoch loop: one graph per
/// sample, built in shard order.
BatchLossFn perSampleLoss(std::function<Var(const MethodSample &)> Loss) {
  return [Loss = std::move(Loss)](
             const std::vector<const MethodSample *> &Group) {
    std::vector<Var> Out;
    Out.reserve(Group.size());
    for (const MethodSample *Sample : Group)
      Out.push_back(Loss(*Sample));
    return Out;
  };
}

/// The worker pool for \p Options, or null for inline execution.
std::unique_ptr<ThreadPool> makePool(const TrainOptions &Options) {
  if (Options.Threads <= 1)
    return nullptr;
  return std::make_unique<ThreadPool>(Options.Threads);
}

/// Shared training driver for both task types: Adam over shuffled
/// epochs with best-on-validation tracking, optional crash-safe
/// checkpointing, and resume. \p Validate returns the current
/// validation score (F1 or accuracy) and is only called when
/// \p TrackBest.
///
/// Checkpoint/resume correctness: state.ckpt is written atomically at
/// the end of a checkpointed epoch and captures everything the loop
/// consumes — parameters, Adam moments + step count, the shuffle Rng
/// state, the epoch cursor, and the best-snapshot bookkeeping. Since
/// epochs are deterministic for any thread count (shard sinks reduced
/// in shard order), restoring that state and rerunning the
/// remaining epochs is bitwise-identical to never having stopped.
/// \p Loss builds each of a mini-batch's \p Shards shards.
template <typename ValidateFn>
TrainResult runTrainingLoop(const BatchLossFn &Loss, size_t Shards,
                            ParamStore &Store,
                            const std::vector<MethodSample> &Train,
                            bool TrackBest, const ValidateFn &Validate,
                            const char *ScoreName,
                            const TrainOptions &Options) {
  // A zero batch size would never advance the epoch loops.
  LIGER_CHECK(Options.BatchSize > 0, "training needs a positive batch size");
  Stopwatch Timer;
  AdamOptions AdamOpts;
  AdamOpts.LearningRate = Options.LearningRate;
  AdamOpts.ClipNorm = Options.ClipNorm;
  Adam Opt(Store, AdamOpts);
  Rng R(Options.Seed);

  TrainResult Result;
  std::vector<Tensor> Best;

  const bool Checkpointing = !Options.CheckpointDir.empty();
  const std::string StatePath = Options.CheckpointDir + "/state.ckpt";
  const std::string BestPath = Options.CheckpointDir + "/best.ckpt";
  if (Checkpointing)
    LIGER_CHECK(ensureDirExists(Options.CheckpointDir),
                "cannot create the checkpoint directory");

  size_t StartEpoch = 0;
  if (Checkpointing && Options.Resume && fileExists(StatePath)) {
    TrainerState TS;
    std::string Err;
    if (!loadCheckpoint(StatePath, Store, &Opt, &TS, &Err)) {
      // Refusing beats silently retraining from scratch: the atomic
      // writer never leaves a torn file, so damage here is real.
      std::fprintf(stderr, "cannot resume: %s\n", Err.c_str());
      reportFatalError("--resume found an unreadable state checkpoint");
    }
    R.setState(TS.RngState);
    StartEpoch = static_cast<size_t>(TS.NextEpoch);
    Result.BestValidScore = TS.BestValidScore;
    Result.BestEpoch = static_cast<size_t>(TS.BestEpoch);
    Result.FinalTrainLoss = TS.FinalTrainLoss;
    if (TS.HasBest)
      Best = std::move(TS.BestParams);
    Result.Resumed = true;
    if (Options.Verbose)
      std::printf("  resuming at epoch %zu (best %s %.4f at epoch %zu)\n",
                  StartEpoch, ScoreName, Result.BestValidScore,
                  Result.BestEpoch);
  }
  Result.StartEpoch = StartEpoch;

  std::unique_ptr<ThreadPool> Pool = makePool(Options);
  const size_t Cadence = std::max<size_t>(1, Options.CheckpointEveryEpochs);
  for (size_t Epoch = StartEpoch; Epoch < Options.Epochs; ++Epoch) {
    Result.FinalTrainLoss =
        runEpochBatched(Train, Options.BatchSize, Shards, Loss, Store, Opt, R,
                        Pool.get(), Epoch, Options.StepHook);
    if (TrackBest) {
      double Score = Validate();
      if (Score >= Result.BestValidScore) {
        Result.BestValidScore = Score;
        Result.BestEpoch = Epoch;
        Best = snapshotParams(Store);
        if (Checkpointing) {
          std::string Err;
          if (!Store.save(BestPath, &Err))
            std::fprintf(stderr,
                         "warning: best-snapshot checkpoint failed: %s\n",
                         Err.c_str());
        }
      }
      if (Options.Verbose)
        std::printf("  epoch %zu  loss %.4f  %s %.4f\n", Epoch,
                    Result.FinalTrainLoss, ScoreName, Score);
    } else if (Options.Verbose) {
      std::printf("  epoch %zu  loss %.4f\n", Epoch, Result.FinalTrainLoss);
    }
    if (Checkpointing &&
        ((Epoch + 1) % Cadence == 0 || Epoch + 1 == Options.Epochs)) {
      TrainerState TS;
      TS.NextEpoch = Epoch + 1;
      TS.BestEpoch = Result.BestEpoch;
      TS.BestValidScore = Result.BestValidScore;
      TS.FinalTrainLoss = Result.FinalTrainLoss;
      TS.RngState = R.state();
      TS.HasBest = !Best.empty();
      TS.BestParams = Best;
      std::string Err;
      if (!saveCheckpoint(StatePath, Store, &Opt, &TS, &Err)) {
        std::fprintf(stderr, "cannot checkpoint: %s\n", Err.c_str());
        reportFatalError("failed to write the training state checkpoint");
      }
    }
  }
  if (TrackBest && !Best.empty())
    restoreParams(Store, Best);
  Result.Seconds = Timer.seconds();
  return Result;
}

} // namespace

PrfScores liger::evaluateNameModel(const NameModelHooks &Hooks,
                                   const std::vector<MethodSample> &Samples) {
  std::vector<std::vector<std::string>> Names = Hooks.Predict(Samples);
  LIGER_CHECK(Names.size() == Samples.size(),
              "the predict hook must return one name per sample");
  SubtokenScorer Scorer;
  for (size_t I = 0; I < Samples.size(); ++I)
    Scorer.add(Names[I], Samples[I].NameSubtokens);
  return Scorer.scores();
}

TrainResult liger::trainNameModel(const NameModelHooks &Hooks,
                                  const std::vector<MethodSample> &Train,
                                  const std::vector<MethodSample> &Valid,
                                  const TrainOptions &Options) {
  LIGER_CHECK(Hooks.Params, "hooks must expose the parameter store");
  bool TrackBest = Options.SelectBestOnValidation && !Valid.empty();
  // Models without a LossBatch hook (the baselines) silently train
  // per-sample under --batched-samples, as TrainOptions documents —
  // multi-model drivers pass one TrainOptions to every model.
  bool Lockstep = Options.BatchedSamples && Hooks.LossBatch;
  return runTrainingLoop(
      Lockstep ? Hooks.LossBatch : perSampleLoss(Hooks.Loss),
      Lockstep ? Options.LockstepShards : Options.BatchSize, *Hooks.Params,
      Train, TrackBest, [&] { return evaluateNameModel(Hooks, Valid).F1; },
      "valid F1", Options);
}

ClassScores liger::evaluateClassifier(const ClassModelHooks &Hooks,
                                      const std::vector<MethodSample> &Samples,
                                      size_t NumClasses) {
  ClassificationScorer Scorer(NumClasses);
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  for (const MethodSample &Sample : Samples) {
    Scorer.add(Hooks.Predict(Sample), Sample.ClassId);
    Arena.reset();
  }
  ClassScores Out;
  Out.Accuracy = Scorer.accuracy();
  Out.MacroF1 = Scorer.macroF1();
  return Out;
}

TrainResult liger::trainClassifier(const ClassModelHooks &Hooks,
                                   const std::vector<MethodSample> &Train,
                                   const std::vector<MethodSample> &Valid,
                                   size_t NumClasses,
                                   const TrainOptions &Options) {
  LIGER_CHECK(Hooks.Params, "hooks must expose the parameter store");
  bool TrackBest = Options.SelectBestOnValidation && !Valid.empty();
  return runTrainingLoop(
      perSampleLoss(Hooks.Loss), Options.BatchSize, *Hooks.Params, Train,
      TrackBest,
      [&] { return evaluateClassifier(Hooks, Valid, NumClasses).Accuracy; },
      "valid acc", Options);
}
