//===-- eval/Training.h - Model-agnostic training loops ---------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Training and evaluation loops shared across LIGER, DYPRO, code2vec,
/// and code2seq. Models plug in through small hook structs (loss,
/// predict, parameter store), mirroring the paper's setup: Adam,
/// mini-batches, best-on-validation selection.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_EVAL_TRAINING_H
#define LIGER_EVAL_TRAINING_H

#include "eval/Metrics.h"
#include "models/Common.h"
#include "nn/Optim.h"

#include <functional>

namespace liger {

/// Training configuration.
struct TrainOptions {
  size_t Epochs = 6;
  size_t BatchSize = 8; ///< Samples per optimizer step; must be positive.
  float LearningRate = 2e-3f;
  uint64_t Seed = 1;
  bool Verbose = false;
  /// Select the epoch with the best validation score (F1 or accuracy);
  /// requires a non-empty validation set.
  bool SelectBestOnValidation = true;
  /// Worker threads within a mini-batch; they build the batch's shard
  /// graphs (one per sample, or the LockstepShards shards under
  /// BatchedSamples). Results are bitwise-identical for any value:
  /// every shard's gradient lands in its own accumulator, and
  /// accumulators are reduced in shard (= sample) order on the calling
  /// thread. 0 or 1 = serial.
  size_t Threads = 1;
  /// Clip the global gradient norm before each Adam step (0 = off).
  float ClipNorm = 0.0f;
  /// Directory for crash-safe training checkpoints (empty = disabled;
  /// created on demand). "state.ckpt" holds the full training state —
  /// parameters, Adam moments and step count, shuffle-Rng state, epoch
  /// cursor, best-on-validation bookkeeping — written atomically after
  /// each checkpointed epoch; "best.ckpt" holds the best-on-validation
  /// parameters as an inference-ready params-only snapshot.
  std::string CheckpointDir;
  /// Write state.ckpt every N completed epochs (and always after the
  /// final one). Best-on-validation snapshots are written whenever the
  /// validation score improves, regardless of cadence.
  size_t CheckpointEveryEpochs = 1;
  /// Resume from CheckpointDir/state.ckpt when it exists; training
  /// then restarts at the first incomplete epoch and finishes bitwise
  /// identical to an uninterrupted run (for any Threads value). A
  /// missing state file starts a fresh run; a corrupt one is fatal.
  bool Resume = false;
  /// Optional hook called after every optimizer step with the 0-based
  /// epoch and the batch index within it (progress reporting; tests
  /// use it to kill a run mid-epoch).
  std::function<void(size_t Epoch, size_t Batch)> StepHook;
  /// Build each mini-batch as LockstepShards lockstep graphs through
  /// the model's LossBatch hook (same-timestep samples share
  /// matmul-backed batch ops) instead of one graph per sample. Both
  /// modes run the same epoch loop and differ only in the shard count,
  /// which orders gradient accumulation, so they are not bitwise
  /// comparable. Ignored by models without a LossBatch hook and by the
  /// classifier driver, which train one sample per shard.
  bool BatchedSamples = false;
  /// Under BatchedSamples, split each mini-batch into this many
  /// contiguous sample shards, each built and differentiated as its
  /// own lockstep graph — the units the ThreadPool distributes when
  /// Threads > 1. The partition depends only on the batch size (never
  /// on Threads), and shard sinks are reduced in shard order on the
  /// calling thread, so losses, gradients, and final weights are
  /// bitwise-identical for any Threads value. Clamped to the batch
  /// size; 1 = one graph per batch.
  size_t LockstepShards = 4;
};

/// Batched loss hook: per-sample mean losses for a whole mini-batch,
/// built as one lockstep graph (see SeqDecoder::lossBatch).
using BatchLossFn =
    std::function<std::vector<Var>(const std::vector<const MethodSample *> &)>;

/// Hooks for a method-name prediction model.
struct NameModelHooks {
  std::function<Var(const MethodSample &)> Loss;
  /// Optional batched variant of Loss (TrainOptions::BatchedSamples).
  BatchLossFn LossBatch;
  /// Names for a whole validation or test set, one per sample in order.
  std::function<std::vector<std::vector<std::string>>(
      const std::vector<MethodSample> &)>
      Predict;
  ParamStore *Params = nullptr;
};

/// Hooks for a classification model.
struct ClassModelHooks {
  std::function<Var(const MethodSample &)> Loss;
  std::function<int(const MethodSample &)> Predict;
  ParamStore *Params = nullptr;
};

/// Result of one training run.
struct TrainResult {
  double FinalTrainLoss = 0;
  double BestValidScore = 0; ///< F1 (names) or accuracy (classes).
  size_t BestEpoch = 0;
  double Seconds = 0;
  size_t StartEpoch = 0; ///< First epoch this run executed (resume).
  bool Resumed = false;  ///< Whether a state checkpoint was restored.
};

/// Evaluates a name model on \p Samples.
PrfScores evaluateNameModel(const NameModelHooks &Hooks,
                            const std::vector<MethodSample> &Samples);

/// Trains a name model; restores the best-validation parameters.
TrainResult trainNameModel(const NameModelHooks &Hooks,
                           const std::vector<MethodSample> &Train,
                           const std::vector<MethodSample> &Valid,
                           const TrainOptions &Options);

/// Evaluates a classifier; \p NumClasses sizes the scorer.
struct ClassScores {
  double Accuracy = 0;
  double MacroF1 = 0;
};
ClassScores evaluateClassifier(const ClassModelHooks &Hooks,
                               const std::vector<MethodSample> &Samples,
                               size_t NumClasses);

/// Trains a classifier, one sample per shard (ClassModelHooks has no
/// LossBatch, so BatchedSamples has no effect); restores the
/// best-validation parameters.
TrainResult trainClassifier(const ClassModelHooks &Hooks,
                            const std::vector<MethodSample> &Train,
                            const std::vector<MethodSample> &Valid,
                            size_t NumClasses, const TrainOptions &Options);

} // namespace liger

#endif // LIGER_EVAL_TRAINING_H
