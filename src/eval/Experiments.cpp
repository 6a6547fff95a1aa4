//===-- eval/Experiments.cpp - Paper experiment drivers --------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "eval/Experiments.h"

#include "models/Code2Seq.h"
#include "models/Code2Vec.h"
#include "models/Dypro.h"
#include "support/StringUtils.h"
#include "testgen/Coverage.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

using namespace liger;

//===----------------------------------------------------------------------===//
// ExperimentScale
//===----------------------------------------------------------------------===//

namespace {

/// Exits with status 2 (the unknown-flag path) for a numeric flag whose
/// value did not parse completely or is out of its range.
[[noreturn]] void badNumericFlag(const std::string &Arg) {
  std::fprintf(stderr, "bad numeric value in experiment flag: %s\n",
               Arg.c_str());
  std::exit(2);
}

} // namespace

ExperimentScale ExperimentScale::fromArgs(int Argc, char **Argv) {
  ExperimentScale Scale;
  bool ModeGiven = false; // an explicit --trace-cache=off stays off
  bool LargeGiven = false; // an explicit --methods-large beats the 2x
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    // Numeric values must be plain decimal digits that parse completely
    // and fit: "--batch=abc" or "--epochs=3x" would otherwise silently
    // become 0 or 3, and a zero batch size never advances an epoch.
    auto TakeSize = [&](const char *Key, size_t &Slot) {
      std::string Prefix = std::string("--") + Key + "=";
      if (!startsWith(Arg, Prefix))
        return false;
      uint64_t Value = 0;
      if (!parseDecimal(Arg.substr(Prefix.size()), Value))
        badNumericFlag(Arg);
      Slot = static_cast<size_t>(Value);
      return true;
    };
    // --paths and --execs land in unsigned fields: a value that does
    // not fit must not wrap (2^32 + 2 would otherwise become 2).
    auto TakeUnsigned = [&](const char *Key, unsigned &Slot) {
      size_t Value = 0;
      if (!TakeSize(Key, Value))
        return false;
      if (Value > std::numeric_limits<unsigned>::max())
        badNumericFlag(Arg);
      Slot = static_cast<unsigned>(Value);
      return true;
    };
    if (Arg == "--verbose") {
      Scale.Verbose = true;
      continue;
    }
    if (Arg == "--resume") {
      Scale.Resume = true;
      continue;
    }
    if (Arg == "--batched-samples") {
      Scale.BatchedSamples = true;
      continue;
    }
    if (startsWith(Arg, "--checkpoint-dir=")) {
      Scale.CheckpointDir = Arg.substr(std::strlen("--checkpoint-dir="));
      continue;
    }
    if (startsWith(Arg, "--trace-cache-dir=")) {
      Scale.TraceCacheDir = Arg.substr(std::strlen("--trace-cache-dir="));
      Scale.CacheFlagsExplicit = true;
      continue;
    }
    if (startsWith(Arg, "--trace-cache=")) {
      std::string Mode = Arg.substr(std::strlen("--trace-cache="));
      if (!parseTraceCacheMode(Mode, Scale.CacheMode)) {
        std::fprintf(stderr, "bad --trace-cache mode '%s' (off|full)\n",
                     Mode.c_str());
        std::exit(2);
      }
      ModeGiven = true;
      Scale.CacheFlagsExplicit = true;
      continue;
    }
    size_t Tmp;
    if (TakeSize("methods-large", Scale.MethodsLarge)) {
      LargeGiven = true;
      continue;
    }
    // A zero batch size never advances an epoch, and a zero-width model
    // has empty tensors and nothing to predict: all three must be >= 1.
    if (TakeSize("batch", Scale.BatchSize) ||
        TakeSize("hidden", Scale.Hidden) ||
        TakeSize("embed", Scale.EmbedDim)) {
      if (Scale.BatchSize == 0 || Scale.Hidden == 0 || Scale.EmbedDim == 0)
        badNumericFlag(Arg);
      continue;
    }
    if (TakeSize("methods", Scale.MethodsMed) ||
        TakeSize("coset-per-class", Scale.CosetPerClass) ||
        TakeSize("epochs", Scale.Epochs) ||
        TakeSize("threads", Scale.Threads) ||
        TakeSize("lockstep-shards", Scale.LockstepShards) ||
        TakeSize("checkpoint-every", Scale.CheckpointEveryEpochs))
      continue;
    if (TakeSize("trace-cache-max-bytes", Tmp)) {
      Scale.TraceCacheMaxBytes = static_cast<uint64_t>(Tmp);
      Scale.CacheFlagsExplicit = true;
      continue;
    }
    if (TakeUnsigned("paths", Scale.TargetPaths) ||
        TakeUnsigned("execs", Scale.ExecutionsPerPath))
      continue;
    if (TakeSize("seed", Tmp)) {
      Scale.Seed = Tmp;
      continue;
    }
    if (startsWith(Arg, "--lr=")) {
      const char *Begin = Arg.c_str() + 5;
      char *End = nullptr;
      errno = 0;
      Scale.LearningRate = std::strtof(Begin, &End);
      if (End == Begin || *End != '\0' || errno == ERANGE ||
          !std::isfinite(Scale.LearningRate))
        badNumericFlag(Arg);
      continue;
    }
    if (startsWith(Arg, "--benchmark"))
      continue; // tolerate google-benchmark flags when mixed
    std::fprintf(stderr, "unknown experiment flag: %s\n", Arg.c_str());
    std::exit(2);
  }
  // The large corpus is twice the medium one unless given.
  if (!LargeGiven)
    Scale.MethodsLarge = 2 * Scale.MethodsMed;
  // A directory without a mode means "cache": full reuse.
  if (!ModeGiven && !Scale.TraceCacheDir.empty())
    Scale.CacheMode = TraceCacheMode::Full;
  if (Scale.CacheMode != TraceCacheMode::Off)
    Scale.Cache = std::make_shared<TraceCache>(
        Scale.CacheMode, Scale.TraceCacheDir, Scale.TraceCacheMaxBytes);
  return Scale;
}

TestGenOptions ExperimentScale::traceGenOptions() const {
  TestGenOptions Options;
  Options.TargetPaths = TargetPaths;
  Options.ExecutionsPerPath = ExecutionsPerPath;
  return Options;
}

TrainOptions ExperimentScale::trainOptions() const {
  TrainOptions Options;
  Options.Epochs = Epochs;
  Options.BatchSize = BatchSize;
  Options.LearningRate = LearningRate;
  Options.Seed = Seed;
  Options.Verbose = Verbose;
  Options.Threads = Threads;
  Options.BatchedSamples = BatchedSamples;
  Options.LockstepShards = LockstepShards;
  Options.CheckpointDir = CheckpointDir;
  Options.CheckpointEveryEpochs = CheckpointEveryEpochs;
  Options.Resume = Resume;
  return Options;
}

//===----------------------------------------------------------------------===//
// Trace transforms
//===----------------------------------------------------------------------===//

TraceTransform liger::reduceConcreteTransform(size_t K) {
  return [K](const MethodTraces &Traces, Rng &R) {
    return reduceConcreteTraces(Traces, K, R);
  };
}

TraceTransform liger::reduceSymbolicTransform(size_t K,
                                              size_t ConcretePerPath) {
  return [K, ConcretePerPath](const MethodTraces &Traces, Rng &R) {
    MethodTraces Capped = reduceConcreteTraces(Traces, ConcretePerPath, R);
    return reduceSymbolicTraces(Capped, K, R);
  };
}

std::vector<MethodSample>
liger::transformSamples(const std::vector<MethodSample> &Samples,
                        const TraceTransform &Transform, uint64_t Seed) {
  if (!Transform)
    return Samples;
  Rng R(Seed);
  std::vector<MethodSample> Out = Samples;
  for (MethodSample &Sample : Out)
    Sample.Traces = Transform(Sample.Traces, R);
  return Out;
}

void liger::traceBudget(const std::vector<MethodSample> &Samples,
                        double &AvgPaths, double &AvgExecs) {
  AvgPaths = AvgExecs = 0;
  if (Samples.empty())
    return;
  for (const MethodSample &Sample : Samples) {
    AvgPaths += static_cast<double>(Sample.Traces.Paths.size());
    AvgExecs += static_cast<double>(Sample.Traces.totalExecutions());
  }
  AvgPaths /= static_cast<double>(Samples.size());
  AvgExecs /= static_cast<double>(Samples.size());
}

//===----------------------------------------------------------------------===//
// Task construction
//===----------------------------------------------------------------------===//

namespace {

Code2VecConfig code2vecConfig(const ExperimentScale &Scale) {
  Code2VecConfig Config;
  Config.EmbedDim = Scale.EmbedDim;
  Config.CodeDim = Scale.Hidden;
  return Config;
}

Code2SeqConfig code2seqConfig(const ExperimentScale &Scale) {
  Code2SeqConfig Config;
  Config.EmbedDim = Scale.EmbedDim;
  Config.Hidden = Scale.Hidden;
  Config.AttnHidden = Scale.Hidden;
  return Config;
}

DyproConfig dyproConfig(const ExperimentScale &Scale) {
  DyproConfig Config;
  Config.EmbedDim = Scale.EmbedDim;
  Config.Hidden = Scale.Hidden;
  Config.AttnHidden = Scale.Hidden;
  return Config;
}

const char *modelId(NameModel Model) {
  switch (Model) {
  case NameModel::Code2Vec:
    return "code2vec";
  case NameModel::Code2Seq:
    return "code2seq";
  case NameModel::Dypro:
    return "dypro";
  case NameModel::Liger:
    return "liger";
  }
  LIGER_UNREACHABLE("covered switch");
}

const char *modelId(ClassModel Model) {
  switch (Model) {
  case ClassModel::Code2Vec:
    return "code2vec";
  case ClassModel::Code2Seq:
    return "code2seq";
  case ClassModel::Dypro:
    return "dypro";
  case ClassModel::Liger:
    return "liger";
  }
  LIGER_UNREACHABLE("covered switch");
}

/// Scopes the experiment-wide checkpoint root to one (task, model)
/// run, so multi-model/multi-dataset binaries never collide on the
/// same state file.
void scopeCheckpointDir(TrainOptions &Opts, const std::string &Tag,
                        const char *Model) {
  if (!Opts.CheckpointDir.empty())
    Opts.CheckpointDir += "/" + Tag + "-" + Model;
}

/// Fills the dynamic models' vocabularies from a training split.
void buildVocabularies(const std::vector<MethodSample> &Train,
                       Vocabulary &Joint, Vocabulary *Target) {
  for (const MethodSample &Sample : Train) {
    addSampleToVocabulary(Sample, Joint);
    addVariableNamesToVocabulary(Sample, Joint);
    if (Target)
      addNameToVocabulary(Sample, *Target);
  }
  Joint.freeze();
  if (Target)
    Target->freeze();
}

} // namespace

LigerConfig liger::ligerConfig(const ExperimentScale &Scale,
                               const LigerAblation &Ablation) {
  LigerConfig Config;
  Config.EmbedDim = Scale.EmbedDim;
  Config.Hidden = Scale.Hidden;
  Config.AttnHidden = Scale.Hidden;
  Config.UseStaticFeature = Ablation.StaticFeature;
  Config.UseDynamicFeature = Ablation.DynamicFeature;
  Config.UseFusionAttention = Ablation.FusionAttention;
  Config.MeanPoolPrograms = Ablation.MeanPool;
  Config.MaxConcretePerPath = Scale.ExecutionsPerPath;
  return Config;
}

NameTask liger::buildNameTask(const ExperimentScale &Scale, bool Large) {
  CorpusOptions Options;
  Options.NumMethods = Large ? Scale.MethodsLarge : Scale.MethodsMed;
  Options.TraceGen = Scale.traceGenOptions();
  Options.TraceGen.Scope = Large ? "large" : "med";
  Options.Seed = Scale.Seed + (Large ? 1000 : 0);
  Options.Threads = Scale.Threads;
  Options.Cache = Scale.Cache.get();

  NameTask Task;
  Task.Tag = Large ? "large" : "med";
  std::vector<MethodSample> Samples =
      generateMethodCorpus(Options, &Task.Stats);
  Task.Split = splitByProject(std::move(Samples), 0.15, 0.2,
                              Scale.Seed + (Large ? 11 : 10));
  buildVocabularies(Task.Split.Train, Task.Joint, &Task.Target);
  return Task;
}

CosetTask liger::buildCosetTask(const ExperimentScale &Scale) {
  CosetOptions Options;
  Options.ProgramsPerClass = Scale.CosetPerClass;
  Options.TraceGen = Scale.traceGenOptions();
  Options.TraceGen.Scope = "coset";
  Options.Seed = Scale.Seed + 2000;
  Options.Threads = Scale.Threads;
  Options.Cache = Scale.Cache.get();

  CosetTask Task;
  Task.Tag = "coset";
  std::vector<MethodSample> Samples =
      generateCosetCorpus(Options, Task.ClassNames);
  Task.NumClasses = Task.ClassNames.size();
  Task.Split = splitByProject(std::move(Samples), 0.15, 0.2, Scale.Seed + 12);
  buildVocabularies(Task.Split.Train, Task.Joint, nullptr);
  return Task;
}

//===----------------------------------------------------------------------===//
// Name model runner
//===----------------------------------------------------------------------===//

NameRunResult liger::runNameModel(NameModel Model, const NameTask &Task,
                                  const ExperimentScale &Scale,
                                  const LigerAblation &Ablation,
                                  const TraceTransform &Transform) {
  std::vector<MethodSample> Train =
      transformSamples(Task.Split.Train, Transform, Scale.Seed + 100);
  std::vector<MethodSample> Valid =
      transformSamples(Task.Split.Valid, Transform, Scale.Seed + 101);
  std::vector<MethodSample> Test =
      transformSamples(Task.Split.Test, Transform, Scale.Seed + 102);

  NameRunResult Result;
  traceBudget(Test, Result.AvgPaths, Result.AvgExecutions);
  TrainOptions TrainOpts = Scale.trainOptions();
  scopeCheckpointDir(TrainOpts, Task.Tag, modelId(Model));

  auto HooksOf = [](auto &Net) {
    NameModelHooks Hooks;
    Hooks.Loss = [&Net](const MethodSample &S) { return Net.loss(S); };
    Hooks.Predict = [&Net](const std::vector<MethodSample> &Samples) {
      return Net.predict(Samples);
    };
    Hooks.Params = &Net.params();
    return Hooks;
  };
  auto Run = [&](const NameModelHooks &Hooks) {
    Result.TrainSeconds =
        trainNameModel(Hooks, Train, Valid, TrainOpts).Seconds;
    Result.Test = evaluateNameModel(Hooks, Test);
  };

  switch (Model) {
  case NameModel::Code2Vec: {
    Code2VecVocabularies V = buildCode2VecVocabularies(Task.Split.Train);
    Code2VecNamePredictor Net(V.Tokens, V.Paths, V.Names,
                              code2vecConfig(Scale), Scale.Seed);
    Run(HooksOf(Net));
    break;
  }
  case NameModel::Code2Seq: {
    Code2SeqVocabularies V = buildCode2SeqVocabularies(Task.Split.Train);
    Code2SeqNamePredictor Net(V.Subtokens, V.Nodes, Task.Target,
                              code2seqConfig(Scale), Scale.Seed);
    Run(HooksOf(Net));
    break;
  }
  case NameModel::Dypro: {
    DyproNamePredictor Net(Task.Joint, Task.Target, dyproConfig(Scale),
                           Scale.Seed);
    Run(HooksOf(Net));
    break;
  }
  case NameModel::Liger: {
    LigerNamePredictor Net(Task.Joint, Task.Target,
                           ligerConfig(Scale, Ablation), Scale.Seed);
    NameModelHooks Hooks = HooksOf(Net);
    Hooks.LossBatch = [&](const std::vector<const MethodSample *> &Group) {
      return Net.lossBatch(Group);
    };
    // Every pass overwrites Fusion, so the test pass's statistics stay.
    FusionStats Fusion;
    Hooks.Predict = [&](const std::vector<MethodSample> &Samples) {
      return Net.predict(Samples, &Fusion);
    };
    Run(Hooks);
    Result.StaticAttention = Fusion.staticMean();
    break;
  }
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// COSET model runner
//===----------------------------------------------------------------------===//

ClassRunResult liger::runCosetModel(ClassModel Model, const CosetTask &Task,
                                    const ExperimentScale &Scale,
                                    const LigerAblation &Ablation,
                                    const TraceTransform &Transform) {
  std::vector<MethodSample> Train =
      transformSamples(Task.Split.Train, Transform, Scale.Seed + 200);
  std::vector<MethodSample> Valid =
      transformSamples(Task.Split.Valid, Transform, Scale.Seed + 201);
  std::vector<MethodSample> Test =
      transformSamples(Task.Split.Test, Transform, Scale.Seed + 202);

  ClassRunResult Result;
  traceBudget(Test, Result.AvgPaths, Result.AvgExecutions);
  TrainOptions TrainOpts = Scale.trainOptions();
  scopeCheckpointDir(TrainOpts, Task.Tag, modelId(Model));

  auto Run = [&](auto &Net) {
    ClassModelHooks Hooks;
    Hooks.Loss = [&](const MethodSample &S) { return Net.loss(S); };
    Hooks.Predict = [&](const MethodSample &S) { return Net.predict(S); };
    Hooks.Params = &Net.params();
    Result.TrainSeconds =
        trainClassifier(Hooks, Train, Valid, Task.NumClasses, TrainOpts)
            .Seconds;
    Result.Test = evaluateClassifier(Hooks, Test, Task.NumClasses);
  };

  switch (Model) {
  case ClassModel::Code2Vec: {
    Code2VecVocabularies V = buildCode2VecVocabularies(Task.Split.Train);
    Code2VecClassifier Net(V.Tokens, V.Paths, Task.NumClasses,
                           code2vecConfig(Scale), Scale.Seed);
    Run(Net);
    return Result;
  }
  case ClassModel::Code2Seq: {
    Code2SeqVocabularies V = buildCode2SeqVocabularies(Task.Split.Train);
    Code2SeqClassifier Net(V.Subtokens, V.Nodes, Task.NumClasses,
                           code2seqConfig(Scale), Scale.Seed);
    Run(Net);
    return Result;
  }
  case ClassModel::Dypro: {
    DyproClassifier Net(Task.Joint, Task.NumClasses, dyproConfig(Scale),
                        Scale.Seed);
    Run(Net);
    return Result;
  }
  case ClassModel::Liger: {
    LigerClassifier Net(Task.Joint, Task.NumClasses,
                        ligerConfig(Scale, Ablation), Scale.Seed);
    Run(Net);
    return Result;
  }
  }
  LIGER_UNREACHABLE("covered switch");
}
