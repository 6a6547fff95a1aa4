//===-- eval/Experiments.h - Paper experiment drivers -----------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end drivers for every table and figure of the paper's
/// evaluation (§6), shared by the bench/ binaries:
///
///  - buildNameTask / runNameModel: Table 2, Figures 6, 8, 9, 10, 11
///    (method name prediction on the Java-med / Java-large substitutes,
///    with trace-reduction transforms and ablation switches);
///  - buildCosetTask / runCosetModel: Table 3 and Figure 7;
///  - generateMethodCorpus stats: Table 1.
///
/// Scale: paper-size corpora and models are replaced by CPU-feasible
/// defaults; ExperimentScale holds every knob and parses command-line
/// overrides (--methods=N --epochs=N --hidden=N --seed=N ...).
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_EVAL_EXPERIMENTS_H
#define LIGER_EVAL_EXPERIMENTS_H

#include "dataset/Corpus.h"
#include "eval/Training.h"
#include "models/Liger.h"
#include "testgen/TraceCache.h"

#include <memory>

namespace liger {

/// Every experiment knob with CPU-scale defaults.
struct ExperimentScale {
  size_t MethodsMed = 150;   ///< Raw methods, "Java-med" substitute.
  size_t MethodsLarge = 300; ///< Raw methods, "Java-large" substitute.
  size_t CosetPerClass = 8;  ///< Programs per (problem, algorithm).
  size_t Epochs = 6;
  size_t BatchSize = 8;
  float LearningRate = 4e-3f;
  size_t Hidden = 24;
  size_t EmbedDim = 24;
  unsigned TargetPaths = 8;       ///< Symbolic traces/method (paper: 20).
  unsigned ExecutionsPerPath = 5; ///< Concrete traces/path (paper: 5).
  uint64_t Seed = 7;
  size_t Threads = 1; ///< Training worker threads (results invariant).
  /// Train models exposing a LossBatch hook (currently LIGER name
  /// prediction) with lockstep-batched mini-batch graphs
  /// (--batched-samples; see TrainOptions::BatchedSamples).
  bool BatchedSamples = false;
  /// Lockstep shards per mini-batch under --batched-samples
  /// (--lockstep-shards=N; see TrainOptions::LockstepShards). The
  /// units --threads distributes; results are thread-count invariant.
  size_t LockstepShards = 4;
  /// Evict least-recently-used on-disk trace-cache entries once the
  /// cache directory exceeds this many bytes
  /// (--trace-cache-max-bytes=N; 0 = unbounded).
  uint64_t TraceCacheMaxBytes = 0;
  bool Verbose = false;
  /// Root directory for crash-safe training checkpoints (empty =
  /// disabled). Each trained model checkpoints under its own
  /// "<tag>-<model>" subdirectory, so one directory serves a whole
  /// multi-model, multi-dataset experiment binary.
  std::string CheckpointDir;
  /// Write a state checkpoint every N completed epochs.
  size_t CheckpointEveryEpochs = 1;
  /// Resume every training run from its state checkpoint when present.
  bool Resume = false;
  /// Trace-cache mode (--trace-cache=off|full). Giving
  /// --trace-cache-dir without a mode implies Full.
  TraceCacheMode CacheMode = TraceCacheMode::Off;
  /// On-disk trace-cache directory (--trace-cache-dir=PATH; empty =
  /// memory-only when a mode is set).
  std::string TraceCacheDir;
  /// The cache instance built from the two knobs above (shared by all
  /// corpora of one experiment binary; null when CacheMode is Off).
  std::shared_ptr<TraceCache> Cache;
  /// True when the user passed any --trace-cache flag, so defaults
  /// applied by binaries (the figure benches share one on-disk cache
  /// unless told otherwise) never override an explicit choice —
  /// including an explicit --trace-cache=off.
  bool CacheFlagsExplicit = false;

  /// Parses --key=value overrides (unknown keys are fatal).
  static ExperimentScale fromArgs(int Argc, char **Argv);

  /// Trace-collection options derived from this scale.
  TestGenOptions traceGenOptions() const;
  /// Training options derived from this scale.
  TrainOptions trainOptions() const;
};

/// A transform applied to every sample's traces (train/valid/test) —
/// the reduction sweeps of §6.1.2. Null means "no reduction".
using TraceTransform =
    std::function<MethodTraces(const MethodTraces &, Rng &)>;

/// Keep at most K concrete traces per path (Fig. 6a/6b x-axis).
TraceTransform reduceConcreteTransform(size_t K);
/// Keep at most K symbolic traces, line coverage preserved while
/// possible (Fig. 6c/6d x-axis); concrete traces per path first capped
/// at \p ConcretePerPath (the paper uses 3 of the original 5).
TraceTransform reduceSymbolicTransform(size_t K, size_t ConcretePerPath);

/// Everything a name-prediction experiment needs.
struct NameTask {
  std::string Tag; ///< "med"/"large"; names the checkpoint subdirectory.
  SplitCorpus Split;
  CorpusStats Stats;
  Vocabulary Joint;   ///< Ds ∪ Dd ∪ variable names (LIGER, DYPRO).
  Vocabulary Target;  ///< Method-name sub-tokens.
};

/// Generates and prepares the corpus (\p Large selects the bigger
/// substitute). Vocabularies are built from the training split; the
/// static baselines build their own where they run
/// (buildCode2VecVocabularies, buildCode2SeqVocabularies).
NameTask buildNameTask(const ExperimentScale &Scale, bool Large);

/// Which name model to run.
enum class NameModel { Code2Vec, Code2Seq, Dypro, Liger };

/// LIGER ablation switches (defaults = full model).
struct LigerAblation {
  bool StaticFeature = true;
  bool DynamicFeature = true;
  bool FusionAttention = true;
  bool MeanPool = false;
};

/// The LIGER configuration of \p Scale under \p Ablation; serving binds
/// the tensors of the full model (serveLigerConfig).
LigerConfig ligerConfig(const ExperimentScale &Scale,
                        const LigerAblation &Ablation = {});

/// Result of one name-model run.
struct NameRunResult {
  PrfScores Test;
  double TrainSeconds = 0;
  /// Mean fusion-attention weight on the symbolic dimension over the
  /// test set (LIGER only; the §6.1.2 introspection).
  double StaticAttention = 0;
  /// Average symbolic traces and concrete executions per test method
  /// (after transforms) — the data-budget axis of the figures.
  double AvgPaths = 0;
  double AvgExecutions = 0;
};

/// Trains and evaluates one name model end to end.
NameRunResult runNameModel(NameModel Model, const NameTask &Task,
                           const ExperimentScale &Scale,
                           const LigerAblation &Ablation = {},
                           const TraceTransform &Transform = nullptr);

/// Everything a COSET-style experiment needs.
struct CosetTask {
  std::string Tag; ///< Names the checkpoint subdirectory.
  SplitCorpus Split;
  std::vector<std::string> ClassNames;
  size_t NumClasses = 0;
  Vocabulary Joint; ///< Built from the training split, as in NameTask.
};

/// Generates and prepares the COSET substitute.
CosetTask buildCosetTask(const ExperimentScale &Scale);

/// Which classifier to run.
enum class ClassModel { Code2Vec, Code2Seq, Dypro, Liger };

/// Result of one classification run.
struct ClassRunResult {
  ClassScores Test;
  double TrainSeconds = 0;
  double AvgPaths = 0;
  double AvgExecutions = 0;
};

/// Trains and evaluates one classifier end to end.
ClassRunResult runCosetModel(ClassModel Model, const CosetTask &Task,
                             const ExperimentScale &Scale,
                             const LigerAblation &Ablation = {},
                             const TraceTransform &Transform = nullptr);

/// Applies \p Transform to a copy of \p Samples (identity when null).
std::vector<MethodSample>
transformSamples(const std::vector<MethodSample> &Samples,
                 const TraceTransform &Transform, uint64_t Seed);

/// Mean paths / executions per sample (the figures' x-axis bookkeeping).
void traceBudget(const std::vector<MethodSample> &Samples, double &AvgPaths,
                 double &AvgExecs);

} // namespace liger

#endif // LIGER_EVAL_EXPERIMENTS_H
