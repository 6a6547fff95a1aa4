//===-- tests/EvalTests.cpp - Unit tests for metrics/training/experiments -===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"
#include "eval/Metrics.h"
#include "eval/Training.h"

#include "models/Code2Seq.h"
#include "models/Code2Vec.h"
#include "models/Dypro.h"
#include "nn/Module.h"
#include "support/BinaryIO.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>

#include <sys/wait.h>
#include <unistd.h>

using namespace liger;

//===----------------------------------------------------------------------===//
// Sub-token metric (the paper's §6.1.1 examples)
//===----------------------------------------------------------------------===//

TEST(MetricsTest, PerfectPrediction) {
  SubtokenScorer S;
  S.add({"compute", "diff"}, {"compute", "diff"});
  PrfScores Scores = S.scores();
  EXPECT_DOUBLE_EQ(Scores.Precision, 100.0);
  EXPECT_DOUBLE_EQ(Scores.Recall, 100.0);
  EXPECT_DOUBLE_EQ(Scores.F1, 100.0);
}

TEST(MetricsTest, OrderDoesNotMatter) {
  // "a prediction of diffCompute is considered a perfect answer".
  SubtokenScorer S;
  S.add({"diff", "compute"}, {"compute", "diff"});
  EXPECT_DOUBLE_EQ(S.scores().F1, 100.0);
}

TEST(MetricsTest, PartialPrecisionRecall) {
  // "a prediction of compute has a full precision, but low recall".
  SubtokenScorer S;
  S.add({"compute"}, {"compute", "diff"});
  PrfScores Scores = S.scores();
  EXPECT_DOUBLE_EQ(Scores.Precision, 100.0);
  EXPECT_DOUBLE_EQ(Scores.Recall, 50.0);

  // "computeFileDiff has full recall, but low precision".
  SubtokenScorer S2;
  S2.add({"compute", "file", "diff"}, {"compute", "diff"});
  PrfScores Scores2 = S2.scores();
  EXPECT_DOUBLE_EQ(Scores2.Recall, 100.0);
  EXPECT_NEAR(Scores2.Precision, 100.0 * 2 / 3, 1e-9);
}

TEST(MetricsTest, CaseInsensitive) {
  SubtokenScorer S;
  S.add({"Compute", "DIFF"}, {"compute", "diff"});
  EXPECT_DOUBLE_EQ(S.scores().F1, 100.0);
}

TEST(MetricsTest, MultisetSemantics) {
  // Predicting a token twice when it appears once: one TP, one FP.
  SubtokenCounts Counts =
      countSubtokenMatches({"get", "get"}, {"get", "name"});
  EXPECT_EQ(Counts.TruePositive, 1u);
  EXPECT_EQ(Counts.FalsePositive, 1u);
  EXPECT_EQ(Counts.FalseNegative, 1u);
}

TEST(MetricsTest, MicroAggregation) {
  SubtokenScorer S;
  S.add({"a"}, {"a"});         // TP=1
  S.add({"b", "c"}, {"d"});    // FP=2 FN=1
  PrfScores Scores = S.scores();
  EXPECT_NEAR(Scores.Precision, 100.0 / 3, 1e-9); // 1/(1+2)
  EXPECT_NEAR(Scores.Recall, 50.0, 1e-9);         // 1/(1+1)
  EXPECT_EQ(S.numExamples(), 2u);
}

TEST(MetricsTest, EmptyPrediction) {
  SubtokenScorer S;
  S.add({}, {"compute", "diff"});
  PrfScores Scores = S.scores();
  EXPECT_DOUBLE_EQ(Scores.Precision, 0.0);
  EXPECT_DOUBLE_EQ(Scores.Recall, 0.0);
  EXPECT_DOUBLE_EQ(Scores.F1, 0.0);
}

//===----------------------------------------------------------------------===//
// Classification metrics
//===----------------------------------------------------------------------===//

TEST(MetricsTest, ClassificationAccuracy) {
  ClassificationScorer S(3);
  S.add(0, 0);
  S.add(1, 1);
  S.add(2, 1);
  S.add(0, 2);
  EXPECT_DOUBLE_EQ(S.accuracy(), 0.5);
  EXPECT_EQ(S.numExamples(), 4u);
}

TEST(MetricsTest, MacroF1PerfectAndZero) {
  ClassificationScorer Perfect(2);
  Perfect.add(0, 0);
  Perfect.add(1, 1);
  EXPECT_DOUBLE_EQ(Perfect.macroF1(), 1.0);

  ClassificationScorer Wrong(2);
  Wrong.add(1, 0);
  Wrong.add(0, 1);
  EXPECT_DOUBLE_EQ(Wrong.macroF1(), 0.0);
}

TEST(MetricsTest, MacroF1IgnoresAbsentClasses) {
  ClassificationScorer S(10);
  S.add(0, 0);
  S.add(1, 1);
  // Only classes 0 and 1 appear; macro F1 averages over them alone.
  EXPECT_DOUBLE_EQ(S.macroF1(), 1.0);
}

//===----------------------------------------------------------------------===//
// Scale parsing and transforms
//===----------------------------------------------------------------------===//

TEST(ScaleTest, ParsesOverrides) {
  const char *Argv[] = {"bench",        "--methods=99", "--epochs=3",
                        "--hidden=16",  "--seed=123",   "--lr=0.005",
                        "--threads=4",  "--verbose"};
  ExperimentScale Scale =
      ExperimentScale::fromArgs(8, const_cast<char **>(Argv));
  EXPECT_EQ(Scale.MethodsMed, 99u);
  EXPECT_EQ(Scale.MethodsLarge, 198u); // derived default
  EXPECT_EQ(Scale.Epochs, 3u);
  EXPECT_EQ(Scale.Hidden, 16u);
  EXPECT_EQ(Scale.Seed, 123u);
  EXPECT_FLOAT_EQ(Scale.LearningRate, 0.005f);
  EXPECT_EQ(Scale.Threads, 4u);
  EXPECT_TRUE(Scale.Verbose);
  EXPECT_EQ(Scale.trainOptions().Threads, 4u);
}

TEST(ScaleTest, ExplicitMethodsLargeBeatsDerivedDefault) {
  // --methods=N derives 2N large methods only when --methods-large is
  // not given, whichever of the two flags comes first.
  const char *LargeFirst[] = {"bench", "--methods-large=500", "--methods=100"};
  const char *LargeLast[] = {"bench", "--methods=100", "--methods-large=500"};
  for (const char **Argv : {LargeFirst, LargeLast}) {
    ExperimentScale Scale =
        ExperimentScale::fromArgs(3, const_cast<char **>(Argv));
    EXPECT_EQ(Scale.MethodsMed, 100u) << Argv[1];
    EXPECT_EQ(Scale.MethodsLarge, 500u) << Argv[1];
  }
  const char *Defaults[] = {"bench"};
  ExperimentScale Scale =
      ExperimentScale::fromArgs(1, const_cast<char **>(Defaults));
  EXPECT_EQ(Scale.MethodsLarge, 2 * Scale.MethodsMed);
}

namespace {

/// Parses a one-flag command line (exits the process on a bad flag).
void parseOneFlag(const char *Flag) {
  const char *Argv[] = {"bench", Flag};
  ExperimentScale::fromArgs(2, const_cast<char **>(Argv));
}

} // namespace

TEST(ScaleTest, RejectsMalformedNumericFlags) {
  // A value that does not parse completely, or does not fit, must take
  // the unknown-flag exit path instead of becoming 0 or its leading
  // digits.
  for (const char *Flag :
       {"--batch=abc", "--epochs=3x", "--methods=", "--hidden= 8",
        "--threads=-1", "--seed=99999999999999999999999", "--lr=fast",
        "--lr=0.01x", "--lr=", "--lr=nan", "--paths=4294967298",
        "--execs=4294967296"})
    EXPECT_EXIT(parseOneFlag(Flag), testing::ExitedWithCode(2),
                "bad numeric value")
        << Flag;
}

TEST(ScaleTest, TraceCacheDirAloneImpliesFull) {
  const char *Argv[] = {"bench", "--trace-cache-dir=scale-test-cache"};
  ExperimentScale Scale =
      ExperimentScale::fromArgs(2, const_cast<char **>(Argv));
  EXPECT_EQ(Scale.CacheMode, TraceCacheMode::Full);
  ASSERT_NE(Scale.Cache, nullptr);
  EXPECT_EQ(Scale.Cache->mode(), TraceCacheMode::Full);
  EXPECT_EQ(Scale.Cache->dir(), "scale-test-cache");
  EXPECT_TRUE(Scale.CacheFlagsExplicit);
}

TEST(ScaleTest, ExplicitTraceCacheOffBeatsDir) {
  // In either order, an explicit off disables caching even though a
  // directory is given.
  const char *OffFirst[] = {"bench", "--trace-cache=off",
                            "--trace-cache-dir=scale-test-cache"};
  const char *DirFirst[] = {"bench", "--trace-cache-dir=scale-test-cache",
                            "--trace-cache=off"};
  for (const char **Argv : {OffFirst, DirFirst}) {
    ExperimentScale Scale =
        ExperimentScale::fromArgs(3, const_cast<char **>(Argv));
    EXPECT_EQ(Scale.CacheMode, TraceCacheMode::Off);
    EXPECT_EQ(Scale.Cache, nullptr);
    EXPECT_TRUE(Scale.CacheFlagsExplicit);
  }
}

TEST(ScaleTest, RejectsUnknownTraceCacheMode) {
  for (const char *Flag :
       {"--trace-cache=inputs", "--trace-cache=Full", "--trace-cache="})
    EXPECT_EXIT(parseOneFlag(Flag), testing::ExitedWithCode(2),
                "bad --trace-cache mode")
        << Flag;
}

TEST(ScaleTest, RejectsZeroBatch) {
  // --batch=0 would make the epoch loops spin on Begin += 0.
  EXPECT_EXIT(parseOneFlag("--batch=0"), testing::ExitedWithCode(2),
              "bad numeric value in experiment flag: --batch=0");
  const char *Argv[] = {"bench", "--batch=1", "--epochs=0"};
  ExperimentScale Scale =
      ExperimentScale::fromArgs(3, const_cast<char **>(Argv));
  EXPECT_EQ(Scale.BatchSize, 1u);
  EXPECT_EQ(Scale.Epochs, 0u);
}

TEST(ScaleTest, RejectsZeroModelWidth) {
  // A zero-width model has empty tensors (Tensor::zeros(0) memsets a
  // null buffer) and serves empty names.
  EXPECT_EXIT(parseOneFlag("--hidden=0"), testing::ExitedWithCode(2),
              "bad numeric value in experiment flag: --hidden=0");
  EXPECT_EXIT(parseOneFlag("--embed=0"), testing::ExitedWithCode(2),
              "bad numeric value in experiment flag: --embed=0");
  const char *Argv[] = {"bench", "--hidden=1", "--embed=1"};
  ExperimentScale Scale =
      ExperimentScale::fromArgs(3, const_cast<char **>(Argv));
  EXPECT_EQ(Scale.Hidden, 1u);
  EXPECT_EQ(Scale.EmbedDim, 1u);
}

namespace {

std::vector<MethodSample> tinyTransformCorpus() {
  CorpusOptions Options;
  Options.NumMethods = 12;
  Options.TraceGen.TargetPaths = 6;
  Options.TraceGen.ExecutionsPerPath = 4;
  Options.TraceGen.MaxAttempts = 80;
  Options.Seed = 21;
  return generateMethodCorpus(Options);
}

} // namespace

TEST(TransformTest, ConcreteReductionCapsExecutions) {
  auto Samples = tinyTransformCorpus();
  ASSERT_FALSE(Samples.empty());
  auto Reduced =
      transformSamples(Samples, reduceConcreteTransform(2), 5);
  ASSERT_EQ(Reduced.size(), Samples.size());
  for (size_t I = 0; I < Reduced.size(); ++I) {
    EXPECT_EQ(Reduced[I].Traces.Paths.size(),
              Samples[I].Traces.Paths.size());
    for (const BlendedTrace &Path : Reduced[I].Traces.Paths)
      EXPECT_LE(Path.numConcrete(), 2u);
  }
}

TEST(TransformTest, SymbolicReductionCapsPaths) {
  auto Samples = tinyTransformCorpus();
  auto Reduced =
      transformSamples(Samples, reduceSymbolicTransform(2, 3), 5);
  for (size_t I = 0; I < Reduced.size(); ++I) {
    EXPECT_LE(Reduced[I].Traces.Paths.size(), 2u);
    for (const BlendedTrace &Path : Reduced[I].Traces.Paths)
      EXPECT_LE(Path.numConcrete(), 3u);
  }
}

TEST(TransformTest, NullTransformIsIdentity) {
  auto Samples = tinyTransformCorpus();
  auto Same = transformSamples(Samples, nullptr, 5);
  ASSERT_EQ(Same.size(), Samples.size());
  for (size_t I = 0; I < Same.size(); ++I)
    EXPECT_EQ(Same[I].Traces.totalExecutions(),
              Samples[I].Traces.totalExecutions());
}

TEST(TransformTest, TraceBudgetBookkeeping) {
  auto Samples = tinyTransformCorpus();
  double Paths = 0, Execs = 0;
  traceBudget(Samples, Paths, Execs);
  EXPECT_GT(Paths, 0.0);
  EXPECT_GT(Execs, Paths - 1e-9); // at least one execution per path
  auto Reduced =
      transformSamples(Samples, reduceConcreteTransform(1), 5);
  double RPaths = 0, RExecs = 0;
  traceBudget(Reduced, RPaths, RExecs);
  EXPECT_DOUBLE_EQ(RPaths, Paths);
  EXPECT_LT(RExecs, Execs);
}

//===----------------------------------------------------------------------===//
// End-to-end training integration (small but real)
//===----------------------------------------------------------------------===//

TEST(TrainingIntegrationTest, LigerImprovesOverTraining) {
  ExperimentScale Scale;
  Scale.MethodsMed = 60;
  Scale.Epochs = 4;
  Scale.Hidden = 16;
  Scale.EmbedDim = 16;
  Scale.TargetPaths = 4;
  Scale.ExecutionsPerPath = 3;
  Scale.LearningRate = 4e-3f;
  Scale.Seed = 3;

  NameTask Task = buildNameTask(Scale, false);
  ASSERT_GE(Task.Split.Train.size(), 20u);
  ASSERT_FALSE(Task.Split.Test.empty());

  LigerConfig Config;
  Config.EmbedDim = Scale.EmbedDim;
  Config.Hidden = Scale.Hidden;
  Config.AttnHidden = Scale.Hidden;
  LigerNamePredictor Net(Task.Joint, Task.Target, Config, Scale.Seed);
  NameModelHooks Hooks;
  Hooks.Loss = [&](const MethodSample &S) { return Net.loss(S); };
  Hooks.Predict = [&](const std::vector<MethodSample> &Samples) {
    return Net.predict(Samples);
  };
  Hooks.Params = &Net.params();

  // Loss must drop substantially from the untrained baseline.
  double InitialLoss = 0;
  {
    GraphArena Arena;
    GraphArena::Scope Scope(Arena);
    for (const MethodSample &Sample : Task.Split.Train) {
      InitialLoss += Net.loss(Sample)->Value[0];
      Arena.reset();
    }
  }
  InitialLoss /= static_cast<double>(Task.Split.Train.size());

  TrainOptions Options = Scale.trainOptions();
  TrainResult Result =
      trainNameModel(Hooks, Task.Split.Train, Task.Split.Valid, Options);
  EXPECT_LT(Result.FinalTrainLoss, InitialLoss * 0.8);
}

TEST(TrainingIntegrationTest, ParallelEpochMatchesSerialBitwise) {
  // Training distributes each mini-batch's samples over a worker pool,
  // but per-sample gradients accumulate into per-sample sinks that are
  // reduced in sample-index order — so any thread count must produce
  // bitwise-identical losses and parameters.
  ExperimentScale Scale;
  Scale.MethodsMed = 30;
  Scale.Epochs = 2;
  Scale.Hidden = 12;
  Scale.EmbedDim = 12;
  Scale.TargetPaths = 3;
  Scale.ExecutionsPerPath = 2;
  Scale.Seed = 5;

  NameTask Task = buildNameTask(Scale, false);
  ASSERT_GE(Task.Split.Train.size(), 10u);

  auto RunWith = [&](size_t Threads,
                     std::vector<std::vector<float>> &ParamsOut) {
    LigerConfig Config;
    Config.EmbedDim = Scale.EmbedDim;
    Config.Hidden = Scale.Hidden;
    Config.AttnHidden = Scale.Hidden;
    LigerNamePredictor Net(Task.Joint, Task.Target, Config, Scale.Seed);
    NameModelHooks Hooks;
    Hooks.Loss = [&](const MethodSample &S) { return Net.loss(S); };
    Hooks.Predict = [&](const std::vector<MethodSample> &Samples) {
      return Net.predict(Samples);
    };
    Hooks.Params = &Net.params();
    TrainOptions Options = Scale.trainOptions();
    Options.Threads = Threads;
    Options.SelectBestOnValidation = false;
    TrainResult Result = trainNameModel(Hooks, Task.Split.Train,
                                        std::vector<MethodSample>(), Options);
    for (const Var &P : Net.params().params())
      ParamsOut.emplace_back(P->Value.data(),
                             P->Value.data() + P->Value.size());
    return Result.FinalTrainLoss;
  };

  std::vector<std::vector<float>> SerialParams, ParallelParams;
  double SerialLoss = RunWith(1, SerialParams);
  double ParallelLoss = RunWith(4, ParallelParams);

  EXPECT_EQ(SerialLoss, ParallelLoss);
  ASSERT_EQ(SerialParams.size(), ParallelParams.size());
  for (size_t I = 0; I < SerialParams.size(); ++I)
    EXPECT_EQ(SerialParams[I], ParallelParams[I]) << "parameter " << I;
}

TEST(TrainingIntegrationTest, LockstepThreadedEpochIsBitwise) {
  // Under BatchedSamples each mini-batch is split into LockstepShards
  // contiguous shard graphs — the units the ThreadPool distributes.
  // The shard partition depends only on the batch size (never on the
  // thread count) and shard sinks are reduced in shard order on the
  // calling thread, so losses and final weights must be
  // bitwise-identical at any --threads.
  ExperimentScale Scale;
  Scale.MethodsMed = 30;
  Scale.Epochs = 2;
  Scale.Hidden = 12;
  Scale.EmbedDim = 12;
  Scale.TargetPaths = 3;
  Scale.ExecutionsPerPath = 2;
  Scale.Seed = 5;
  Scale.BatchedSamples = true;

  NameTask Task = buildNameTask(Scale, false);
  ASSERT_GE(Task.Split.Train.size(), 10u);

  auto RunWith = [&](size_t Threads,
                     std::vector<std::vector<float>> &ParamsOut) {
    LigerConfig Config;
    Config.EmbedDim = Scale.EmbedDim;
    Config.Hidden = Scale.Hidden;
    Config.AttnHidden = Scale.Hidden;
    LigerNamePredictor Net(Task.Joint, Task.Target, Config, Scale.Seed);
    NameModelHooks Hooks;
    Hooks.Loss = [&](const MethodSample &S) { return Net.loss(S); };
    Hooks.LossBatch =
        [&](const std::vector<const MethodSample *> &Group) {
          return Net.lossBatch(Group);
        };
    Hooks.Predict = [&](const std::vector<MethodSample> &Samples) {
      return Net.predict(Samples);
    };
    Hooks.Params = &Net.params();
    TrainOptions Options = Scale.trainOptions();
    Options.Threads = Threads;
    Options.SelectBestOnValidation = false;
    TrainResult Result = trainNameModel(Hooks, Task.Split.Train,
                                        std::vector<MethodSample>(), Options);
    for (const Var &P : Net.params().params())
      ParamsOut.emplace_back(P->Value.data(),
                             P->Value.data() + P->Value.size());
    return Result.FinalTrainLoss;
  };

  std::vector<std::vector<float>> P1, P2, P4;
  double L1 = RunWith(1, P1);
  double L2 = RunWith(2, P2);
  double L4 = RunWith(4, P4);
  EXPECT_EQ(L1, L2);
  EXPECT_EQ(L1, L4);
  ASSERT_EQ(P1.size(), P2.size());
  ASSERT_EQ(P1.size(), P4.size());
  for (size_t I = 0; I < P1.size(); ++I) {
    EXPECT_EQ(P1[I], P2[I]) << "parameter " << I;
    EXPECT_EQ(P1[I], P4[I]) << "parameter " << I;
  }
}

TEST(TrainingIntegrationTest, ZeroBatchSizeIsFatal) {
  // Library callers bypass fromArgs' flag checks; the training loop
  // itself must refuse a zero batch size instead of spinning on it.
  ParamStore Store;
  Var W = Store.addParam("w", Tensor::zeros(1));
  NameModelHooks Hooks;
  Hooks.Loss = [&](const MethodSample &) { return sumV(W); };
  Hooks.Params = &Store;
  TrainOptions Options;
  Options.BatchSize = 0;
  std::vector<MethodSample> Train(2);
  EXPECT_DEATH(trainNameModel(Hooks, Train, {}, Options),
               "positive batch size");
}

TEST(TrainingIntegrationTest, BatchedSamplesWithoutHookFallsBackPerSample) {
  // Multi-model drivers hand one TrainOptions to every model, so
  // BatchedSamples must be a silent no-op for models that expose no
  // LossBatch hook — same per-sample path, bitwise-identical results.
  ExperimentScale Scale;
  Scale.MethodsMed = 30;
  Scale.Epochs = 2;
  Scale.Hidden = 12;
  Scale.EmbedDim = 12;
  Scale.TargetPaths = 3;
  Scale.ExecutionsPerPath = 2;
  Scale.Seed = 5;

  NameTask Task = buildNameTask(Scale, false);
  ASSERT_GE(Task.Split.Train.size(), 10u);

  auto RunWith = [&](bool Batched,
                     std::vector<std::vector<float>> &ParamsOut) {
    LigerConfig Config;
    Config.EmbedDim = Scale.EmbedDim;
    Config.Hidden = Scale.Hidden;
    Config.AttnHidden = Scale.Hidden;
    LigerNamePredictor Net(Task.Joint, Task.Target, Config, Scale.Seed);
    NameModelHooks Hooks;
    Hooks.Loss = [&](const MethodSample &S) { return Net.loss(S); };
    Hooks.Predict = [&](const std::vector<MethodSample> &Samples) {
      return Net.predict(Samples);
    };
    Hooks.Params = &Net.params();
    // Deliberately no Hooks.LossBatch.
    TrainOptions Options = Scale.trainOptions();
    Options.BatchedSamples = Batched;
    Options.SelectBestOnValidation = false;
    TrainResult Result = trainNameModel(Hooks, Task.Split.Train,
                                        std::vector<MethodSample>(), Options);
    for (const Var &P : Net.params().params())
      ParamsOut.emplace_back(P->Value.data(),
                             P->Value.data() + P->Value.size());
    return Result.FinalTrainLoss;
  };

  std::vector<std::vector<float>> PlainParams, BatchedParams;
  double PlainLoss = RunWith(false, PlainParams);
  double BatchedLoss = RunWith(true, BatchedParams);

  EXPECT_EQ(PlainLoss, BatchedLoss);
  ASSERT_EQ(PlainParams.size(), BatchedParams.size());
  for (size_t I = 0; I < PlainParams.size(); ++I)
    EXPECT_EQ(PlainParams[I], BatchedParams[I]) << "parameter " << I;
}

TEST(TrainingIntegrationTest, ClassifierBeatsChanceOnCoset) {
  ExperimentScale Scale;
  Scale.CosetPerClass = 5;
  Scale.Epochs = 6;
  Scale.Hidden = 16;
  Scale.EmbedDim = 16;
  Scale.TargetPaths = 4;
  Scale.ExecutionsPerPath = 3;
  Scale.LearningRate = 4e-3f;
  Scale.Seed = 3;

  CosetTask Task = buildCosetTask(Scale);
  ASSERT_GT(Task.NumClasses, 10u);
  ASSERT_FALSE(Task.Split.Test.empty());

  ClassRunResult Result = runCosetModel(ClassModel::Liger, Task, Scale);
  double Chance = 1.0 / static_cast<double>(Task.NumClasses);
  EXPECT_GT(Result.Test.Accuracy, Chance * 2);
}

//===----------------------------------------------------------------------===//
// Drift gate: a golden digest of small experiment runs
//===----------------------------------------------------------------------===//
//
// Every name model and every COSET classifier at a tiny scale, folded
// into one digest per task. Every name model scores F1 = 0 here, so
// the digests fold what the models output, not only the scores: each
// run's best epoch, best validation score and final training loss
// (bits), every sub-token each name model predicts for every
// validation and test method under the restored best parameters, the
// test scores and fusion statistics runNameModel reports for LIGER
// (full model and uniform fusion), and every predicted class id and
// the test accuracy of each classifier. A digest change means a model
// output bit changed: say so in CHANGES.md and regenerate the results.
//
// The digests were computed while evaluation still decoded through the
// autodiff graph (SeqDecoder) and LIGER's fusion statistics came from
// the graph encoder; the forward-only decoder and runtime that replace
// them must reproduce every bit. The scalar kernels
// (LIGER_NATIVE_SIMD=OFF) round differently from the AVX2 ones, so
// each kernel configuration has its own pair.

namespace {

ExperimentScale digestScale() {
  ExperimentScale Scale;
  Scale.MethodsMed = 64;
  Scale.Epochs = 2;
  Scale.Hidden = 8;
  Scale.EmbedDim = 8;
  Scale.TargetPaths = 3;
  Scale.ExecutionsPerPath = 2;
  Scale.Seed = 11;
  return Scale;
}

#if LIGER_SIMD_AVX2
constexpr uint64_t NameModelsDigest = 5347988627398356593ull;
constexpr uint64_t CosetClassifiersDigest = 17880391969936264602ull;
#else
constexpr uint64_t NameModelsDigest = 4268730295895259844ull;
constexpr uint64_t CosetClassifiersDigest = 2221391057893541540ull;
#endif

void foldTrainResult(StableHash &H, const TrainResult &R) {
  H.addU64(R.BestEpoch);
  H.addF64(R.BestValidScore);
  H.addF64(R.FinalTrainLoss);
}

void foldNames(StableHash &H,
               const std::vector<std::vector<std::string>> &Names) {
  H.addU64(Names.size());
  for (const std::vector<std::string> &Name : Names) {
    H.addU64(Name.size());
    for (const std::string &Subtoken : Name)
      H.addString(Subtoken);
  }
}

/// The hooks runNameModel builds for \p Net.
template <typename Model> NameModelHooks nameHooks(Model &Net) {
  NameModelHooks Hooks;
  Hooks.Loss = [&Net](const MethodSample &S) { return Net.loss(S); };
  Hooks.Predict = [&Net](const std::vector<MethodSample> &Samples) {
    return Net.predict(Samples);
  };
  Hooks.Params = &Net.params();
  return Hooks;
}

/// Trains as runNameModel does, then folds the run and the predictions
/// of the restored best parameters.
void foldNameRun(StableHash &H, const NameModelHooks &Hooks,
                 const NameTask &Task, const ExperimentScale &Scale) {
  foldTrainResult(H, trainNameModel(Hooks, Task.Split.Train,
                                    Task.Split.Valid, Scale.trainOptions()));
  foldNames(H, Hooks.Predict(Task.Split.Valid));
  foldNames(H, Hooks.Predict(Task.Split.Test));
}

/// The hooks runCosetModel builds for \p Net.
template <typename Model> ClassModelHooks classHooks(Model &Net) {
  ClassModelHooks Hooks;
  Hooks.Loss = [&Net](const MethodSample &S) { return Net.loss(S); };
  Hooks.Predict = [&Net](const MethodSample &S) { return Net.predict(S); };
  Hooks.Params = &Net.params();
  return Hooks;
}

void foldClassRun(StableHash &H, const ClassModelHooks &Hooks,
                  const CosetTask &Task, const ExperimentScale &Scale) {
  foldTrainResult(H, trainClassifier(Hooks, Task.Split.Train,
                                     Task.Split.Valid, Task.NumClasses,
                                     Scale.trainOptions()));
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  for (const std::vector<MethodSample> *Split :
       {&Task.Split.Valid, &Task.Split.Test})
    for (const MethodSample &S : *Split) {
      H.addI64(Hooks.Predict(S));
      Arena.reset();
    }
  ClassScores Scores =
      evaluateClassifier(Hooks, Task.Split.Test, Task.NumClasses);
  H.addF64(Scores.Accuracy);
  H.addF64(Scores.MacroF1);
}

Code2VecConfig digestCode2VecConfig(const ExperimentScale &Scale) {
  Code2VecConfig Config;
  Config.EmbedDim = Scale.EmbedDim;
  Config.CodeDim = Scale.Hidden;
  return Config;
}

Code2SeqConfig digestCode2SeqConfig(const ExperimentScale &Scale) {
  Code2SeqConfig Config;
  Config.EmbedDim = Scale.EmbedDim;
  Config.Hidden = Config.AttnHidden = Scale.Hidden;
  return Config;
}

DyproConfig digestDyproConfig(const ExperimentScale &Scale) {
  DyproConfig Config;
  Config.EmbedDim = Scale.EmbedDim;
  Config.Hidden = Config.AttnHidden = Scale.Hidden;
  return Config;
}

} // namespace

TEST(ExperimentDigestTest, NameModels) {
  ExperimentScale Scale = digestScale();
  NameTask Task = buildNameTask(Scale, /*Large=*/false);
  ASSERT_EQ(Task.Split.Train.size(), 48u);
  ASSERT_EQ(Task.Split.Valid.size(), 7u);
  ASSERT_EQ(Task.Split.Test.size(), 8u);

  StableHash H;
  {
    Code2VecVocabularies V = buildCode2VecVocabularies(Task.Split.Train);
    Code2VecNamePredictor Net(V.Tokens, V.Paths, V.Names,
                              digestCode2VecConfig(Scale), Scale.Seed);
    foldNameRun(H, nameHooks(Net), Task, Scale);
  }
  {
    Code2SeqVocabularies V = buildCode2SeqVocabularies(Task.Split.Train);
    Code2SeqNamePredictor Net(V.Subtokens, V.Nodes, Task.Target,
                              digestCode2SeqConfig(Scale), Scale.Seed);
    foldNameRun(H, nameHooks(Net), Task, Scale);
  }
  {
    DyproNamePredictor Net(Task.Joint, Task.Target, digestDyproConfig(Scale),
                           Scale.Seed);
    foldNameRun(H, nameHooks(Net), Task, Scale);
  }
  {
    LigerNamePredictor Net(Task.Joint, Task.Target, ligerConfig(Scale),
                           Scale.Seed);
    foldNameRun(H, nameHooks(Net), Task, Scale);
  }
  // The fusion statistics: attention weights, and only 1/N and 1 terms
  // under uniform fusion.
  LigerAblation Uniform;
  Uniform.FusionAttention = false;
  for (const LigerAblation &Ablation : {LigerAblation(), Uniform}) {
    NameRunResult Run = runNameModel(NameModel::Liger, Task, Scale, Ablation);
    EXPECT_GT(Run.StaticAttention, 0.0);
    H.addF64(Run.Test.Precision);
    H.addF64(Run.Test.Recall);
    H.addF64(Run.Test.F1);
    H.addF64(Run.StaticAttention);
  }
  EXPECT_EQ(H.digest(), NameModelsDigest);
}

TEST(ExperimentDigestTest, CosetClassifiers) {
  ExperimentScale Scale = digestScale();
  CosetTask Task = buildCosetTask(Scale);
  ASSERT_EQ(Task.NumClasses, 24u);

  StableHash H;
  {
    Code2VecVocabularies V = buildCode2VecVocabularies(Task.Split.Train);
    Code2VecClassifier Net(V.Tokens, V.Paths, Task.NumClasses,
                           digestCode2VecConfig(Scale), Scale.Seed);
    foldClassRun(H, classHooks(Net), Task, Scale);
  }
  {
    Code2SeqVocabularies V = buildCode2SeqVocabularies(Task.Split.Train);
    Code2SeqClassifier Net(V.Subtokens, V.Nodes, Task.NumClasses,
                           digestCode2SeqConfig(Scale), Scale.Seed);
    foldClassRun(H, classHooks(Net), Task, Scale);
  }
  {
    DyproClassifier Net(Task.Joint, Task.NumClasses, digestDyproConfig(Scale),
                        Scale.Seed);
    foldClassRun(H, classHooks(Net), Task, Scale);
  }
  {
    LigerClassifier Net(Task.Joint, Task.NumClasses, ligerConfig(Scale),
                        Scale.Seed);
    foldClassRun(H, classHooks(Net), Task, Scale);
  }
  EXPECT_EQ(H.digest(), CosetClassifiersDigest);
}

// The digests above train per sample at Hidden 8, where every gradient
// kernel runs one 8-float chunk and its scalar tail. This one trains
// LIGER the way perfbench's train workload does: lockstep batches in 4
// shards at Hidden = EmbedDim = 24, so the GRU, attention and loss-head
// batch backwards run many lanes over several chunks per row. It folds
// the run (best epoch, best validation score and final loss bits) and
// every trained parameter, at 1 and 4 threads. Both constants were
// computed before the backward kernels were register-blocked.

namespace {

ExperimentScale lockstepDigestScale() {
  ExperimentScale Scale;
  Scale.MethodsMed = 64;
  Scale.Epochs = 2;
  Scale.Seed = 11;
  Scale.BatchedSamples = true;
  Scale.LockstepShards = 4;
  return Scale;
}

#if LIGER_SIMD_AVX2
constexpr uint64_t LockstepLigerDigest = 15375840476026040460ull;
#else
constexpr uint64_t LockstepLigerDigest = 2759762628312199472ull;
#endif

uint64_t lockstepLigerDigest(const NameTask &Task, size_t Threads) {
  ExperimentScale Scale = lockstepDigestScale();
  Scale.Threads = Threads;
  LigerNamePredictor Net(Task.Joint, Task.Target, ligerConfig(Scale),
                         Scale.Seed);
  NameModelHooks Hooks = nameHooks(Net);
  Hooks.LossBatch = [&Net](const std::vector<const MethodSample *> &Group) {
    return Net.lossBatch(Group);
  };
  StableHash H;
  foldTrainResult(H, trainNameModel(Hooks, Task.Split.Train,
                                    Task.Split.Valid, Scale.trainOptions()));
  for (const Var &P : Net.params().params())
    H.addBytes(P->Value.data(), P->Value.size() * sizeof(float));
  return H.digest();
}

} // namespace

TEST(ExperimentDigestTest, LockstepLiger) {
  ExperimentScale Scale = lockstepDigestScale();
  ASSERT_EQ(Scale.Hidden, 24u);
  ASSERT_EQ(Scale.EmbedDim, 24u);
  NameTask Task = buildNameTask(Scale, /*Large=*/false);
  ASSERT_FALSE(Task.Split.Valid.empty());
  uint64_t Serial = lockstepLigerDigest(Task, 1);
  EXPECT_EQ(lockstepLigerDigest(Task, 4), Serial);
  EXPECT_EQ(Serial, LockstepLigerDigest);
}

//===----------------------------------------------------------------------===//
// Checkpoint / resume (crash safety)
//===----------------------------------------------------------------------===//

namespace {

ExperimentScale resumeScale() {
  ExperimentScale Scale;
  Scale.MethodsMed = 60; // enough projects for a non-empty valid split
  Scale.Epochs = 4;
  Scale.Hidden = 12;
  Scale.EmbedDim = 12;
  Scale.TargetPaths = 3;
  Scale.ExecutionsPerPath = 2;
  Scale.Seed = 5;
  return Scale;
}

/// The corpus is comparatively slow to generate, so the resume tests
/// below share one.
const NameTask &resumeTask() {
  static NameTask Task = buildNameTask(resumeScale(), false);
  return Task;
}

/// Trains a freshly initialized Liger net on the shared task under
/// \p Options and appends every final parameter value to \p ParamsOut.
double trainFreshNet(const TrainOptions &Options,
                     std::vector<std::vector<float>> *ParamsOut,
                     TrainResult *ResultOut = nullptr) {
  const NameTask &Task = resumeTask();
  ExperimentScale Scale = resumeScale();
  LigerConfig Config;
  Config.EmbedDim = Scale.EmbedDim;
  Config.Hidden = Scale.Hidden;
  Config.AttnHidden = Scale.Hidden;
  LigerNamePredictor Net(Task.Joint, Task.Target, Config, Scale.Seed);
  NameModelHooks Hooks;
  Hooks.Loss = [&](const MethodSample &S) { return Net.loss(S); };
  Hooks.Predict = [&](const std::vector<MethodSample> &Samples) {
    return Net.predict(Samples);
  };
  Hooks.Params = &Net.params();
  TrainResult Result =
      trainNameModel(Hooks, Task.Split.Train, Task.Split.Valid, Options);
  if (ParamsOut)
    for (const Var &P : Net.params().params())
      ParamsOut->emplace_back(P->Value.data(),
                              P->Value.data() + P->Value.size());
  if (ResultOut)
    *ResultOut = Result;
  return Result.FinalTrainLoss;
}

/// Per-test checkpoint directory with any stale snapshots removed.
std::string freshCheckpointDir(const std::string &Name) {
  std::string Dir = "eval-ckpt-" + Name;
  std::remove((Dir + "/state.ckpt").c_str());
  std::remove((Dir + "/best.ckpt").c_str());
  return Dir;
}

} // namespace

TEST(CheckpointResumeTest, ResumeMatchesUninterruptedBitwise) {
  // Train 4 epochs straight through; then train 2 epochs with
  // checkpointing, throw the net away, and resume a fresh one for the
  // remaining epochs. Parameters, loss, and best-epoch bookkeeping
  // must be bitwise identical at every thread count.
  ASSERT_FALSE(resumeTask().Split.Valid.empty())
      << "the scale must produce a validation split so best-snapshot "
         "tracking is exercised";
  for (size_t Threads : {size_t(1), size_t(2)}) {
    TrainOptions Full = resumeScale().trainOptions();
    Full.Threads = Threads;
    std::vector<std::vector<float>> FullParams;
    TrainResult FullResult;
    double FullLoss = trainFreshNet(Full, &FullParams, &FullResult);

    std::string Dir =
        freshCheckpointDir("bitwise-t" + std::to_string(Threads));
    TrainOptions Half = Full;
    Half.Epochs = 2;
    Half.CheckpointDir = Dir;
    trainFreshNet(Half, nullptr);

    TrainOptions Rest = Full;
    Rest.CheckpointDir = Dir;
    Rest.Resume = true;
    std::vector<std::vector<float>> ResumedParams;
    TrainResult ResumedResult;
    double ResumedLoss = trainFreshNet(Rest, &ResumedParams, &ResumedResult);

    EXPECT_TRUE(ResumedResult.Resumed);
    EXPECT_EQ(ResumedResult.StartEpoch, 2u);
    EXPECT_EQ(FullLoss, ResumedLoss) << "threads " << Threads;
    EXPECT_EQ(FullResult.BestEpoch, ResumedResult.BestEpoch);
    EXPECT_EQ(FullResult.BestValidScore, ResumedResult.BestValidScore);
    ASSERT_EQ(FullParams.size(), ResumedParams.size());
    for (size_t I = 0; I < FullParams.size(); ++I)
      EXPECT_EQ(FullParams[I], ResumedParams[I])
          << "parameter " << I << " threads " << Threads;
  }
}

TEST(CheckpointResumeTest, ResumeAcrossThreadCounts) {
  // A checkpoint written by a single-threaded run resumes under a
  // worker pool (and still matches the uninterrupted run): the state
  // file stores no thread-dependent data.
  TrainOptions Full = resumeScale().trainOptions();
  Full.Threads = 2;
  std::vector<std::vector<float>> FullParams;
  double FullLoss = trainFreshNet(Full, &FullParams);

  std::string Dir = freshCheckpointDir("crossthread");
  TrainOptions Half = Full;
  Half.Epochs = 2;
  Half.Threads = 1;
  Half.CheckpointDir = Dir;
  trainFreshNet(Half, nullptr);

  TrainOptions Rest = Full;
  Rest.CheckpointDir = Dir;
  Rest.Resume = true;
  std::vector<std::vector<float>> ResumedParams;
  double ResumedLoss = trainFreshNet(Rest, &ResumedParams);

  EXPECT_EQ(FullLoss, ResumedLoss);
  ASSERT_EQ(FullParams.size(), ResumedParams.size());
  for (size_t I = 0; I < FullParams.size(); ++I)
    EXPECT_EQ(FullParams[I], ResumedParams[I]) << "parameter " << I;
}

TEST(CheckpointResumeTest, SigkillMidEpochThenResumeIsBitwise) {
  // Simulate a real crash: a child process trains with checkpointing
  // and SIGKILLs itself in the middle of epoch 2, after the epoch-1
  // snapshot. The on-disk state must survive (atomic writes) and a
  // resumed run must match the uninterrupted one bitwise. The child
  // forks before the parent ever trains, so no worker threads are lost
  // to fork(); it also trains single-threaded.
  std::string Dir = freshCheckpointDir("sigkill");
  TrainOptions ChildOpts = resumeScale().trainOptions();
  ChildOpts.Threads = 1;
  ChildOpts.CheckpointDir = Dir;
  ChildOpts.StepHook = [](size_t Epoch, size_t Batch) {
    if (Epoch == 2 && Batch == 1)
      raise(SIGKILL);
  };

  pid_t Child = fork();
  ASSERT_GE(Child, 0) << "fork failed";
  if (Child == 0) {
    trainFreshNet(ChildOpts, nullptr);
    _exit(0); // Not reached: the hook kills the process first.
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFSIGNALED(Status)) << "child was expected to die mid-epoch";
  EXPECT_EQ(WTERMSIG(Status), SIGKILL);

  TrainOptions Full = resumeScale().trainOptions();
  Full.Threads = 1;
  std::vector<std::vector<float>> FullParams;
  double FullLoss = trainFreshNet(Full, &FullParams);

  TrainOptions Rest = Full;
  Rest.CheckpointDir = Dir;
  Rest.Resume = true;
  std::vector<std::vector<float>> ResumedParams;
  TrainResult ResumedResult;
  double ResumedLoss = trainFreshNet(Rest, &ResumedParams, &ResumedResult);

  EXPECT_TRUE(ResumedResult.Resumed);
  EXPECT_EQ(ResumedResult.StartEpoch, 2u); // killed before epoch 2 finished
  EXPECT_EQ(FullLoss, ResumedLoss);
  ASSERT_EQ(FullParams.size(), ResumedParams.size());
  for (size_t I = 0; I < FullParams.size(); ++I)
    EXPECT_EQ(FullParams[I], ResumedParams[I]) << "parameter " << I;
}

TEST(CheckpointResumeTest, ResumeWithoutCheckpointStartsFresh) {
  TrainOptions Full = resumeScale().trainOptions();
  std::vector<std::vector<float>> FullParams;
  double FullLoss = trainFreshNet(Full, &FullParams);

  // --resume with an empty directory is a fresh run, not an error.
  std::string Dir = freshCheckpointDir("fresh");
  TrainOptions Opts = Full;
  Opts.CheckpointDir = Dir;
  Opts.Resume = true;
  std::vector<std::vector<float>> Params;
  TrainResult Result;
  double Loss = trainFreshNet(Opts, &Params, &Result);

  EXPECT_FALSE(Result.Resumed);
  EXPECT_EQ(Result.StartEpoch, 0u);
  EXPECT_EQ(FullLoss, Loss);
  ASSERT_EQ(FullParams.size(), Params.size());
  for (size_t I = 0; I < FullParams.size(); ++I)
    EXPECT_EQ(FullParams[I], Params[I]) << "parameter " << I;

  // The run also leaves an inference-ready best.ckpt behind that loads
  // into a freshly built net's ParamStore.
  ASSERT_TRUE(fileExists(Dir + "/best.ckpt"));
  const NameTask &Task = resumeTask();
  ExperimentScale Scale = resumeScale();
  LigerConfig Config;
  Config.EmbedDim = Scale.EmbedDim;
  Config.Hidden = Scale.Hidden;
  Config.AttnHidden = Scale.Hidden;
  LigerNamePredictor Net(Task.Joint, Task.Target, Config, Scale.Seed + 1);
  std::string Error;
  EXPECT_TRUE(Net.params().load(Dir + "/best.ckpt", &Error)) << Error;
}
