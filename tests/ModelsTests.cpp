//===-- tests/ModelsTests.cpp - Unit tests for the neural models ----------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "ReferenceGraphs.h"

#include "models/Code2Seq.h"
#include "models/Code2Vec.h"
#include "models/Decoder.h"
#include "models/Dypro.h"
#include "models/Liger.h"

#include "lang/Parser.h"
#include "nn/Optim.h"
#include "nn/WeightImage.h"
#include "support/StringUtils.h"
#include "testgen/TraceCollector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace liger;

namespace {

/// Builds a MethodSample from source (the function is the last
/// declaration) with labels derived from its name.
MethodSample makeSample(const std::string &Source, int ClassId = -1) {
  DiagnosticSink Diags;
  std::optional<Program> P = parseAndCheck(Source, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  MethodSample Sample;
  Sample.Prog = std::make_shared<Program>(std::move(*P));
  Sample.Fn = &Sample.Prog->Functions.back();
  TestGenOptions Options;
  Options.TargetPaths = 4;
  Options.ExecutionsPerPath = 3;
  Options.MaxAttempts = 60;
  Sample.Traces = collectTraces(*Sample.Prog, *Sample.Fn, Options);
  Sample.NameSubtokens = splitSubtokens(Sample.Fn->Name);
  Sample.ClassId = ClassId;
  Sample.Project = "test";
  return Sample;
}

/// A small two-sample corpus with distinct semantics and names.
std::vector<MethodSample> tinyCorpus() {
  std::vector<MethodSample> Samples;
  Samples.push_back(makeSample(R"(
int sumArray(int[] arr) {
  int total = 0;
  for (int i = 0; i < len(arr); i++)
    total += arr[i];
  return total;
}
)", 0));
  Samples.push_back(makeSample(R"(
int maxArray(int[] arr) {
  if (len(arr) == 0)
    return 0;
  int best = arr[0];
  for (int i = 1; i < len(arr); i++)
    if (arr[i] > best)
      best = arr[i];
  return best;
}
)", 1));
  return Samples;
}

struct TinyVocabs {
  Vocabulary Joint;
  Vocabulary Target;
};

TinyVocabs buildVocabs(const std::vector<MethodSample> &Samples) {
  TinyVocabs V;
  for (const MethodSample &Sample : Samples) {
    addSampleToVocabulary(Sample, V.Joint);
    addVariableNamesToVocabulary(Sample, V.Joint);
    addNameToVocabulary(Sample, V.Target);
  }
  V.Joint.freeze();
  V.Target.freeze();
  return V;
}

LigerConfig tinyLigerConfig() {
  LigerConfig Config;
  Config.EmbedDim = 12;
  Config.Hidden = 12;
  Config.AttnHidden = 12;
  Config.MaxStepsPerTrace = 24;
  return Config;
}

} // namespace

//===----------------------------------------------------------------------===//
// Common helpers
//===----------------------------------------------------------------------===//

TEST(CommonTest, NameTargetRoundTrip) {
  Vocabulary Target;
  Target.add("sum");
  Target.add("array");
  Target.freeze();
  std::vector<int> Ids = nameTargetIds({"sum", "array"}, Target);
  ASSERT_EQ(Ids.size(), 3u);
  EXPECT_EQ(Ids.back(), Vocabulary::Eos);
  EXPECT_EQ(idsToSubtokens(Ids, Target),
            (std::vector<std::string>{"sum", "array"}));
}

TEST(CommonTest, UnknownSubtokensMapToUnk) {
  Vocabulary Target;
  Target.add("sum");
  Target.freeze();
  std::vector<int> Ids = nameTargetIds({"sum", "exotic"}, Target);
  EXPECT_EQ(Ids[1], Vocabulary::Unk);
  // Unk is skipped when decoding back.
  EXPECT_EQ(idsToSubtokens(Ids, Target), (std::vector<std::string>{"sum"}));
}

TEST(CommonTest, VocabularyCoversTracesAndNames) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  // Statement labels, value tokens, and variable names must be present.
  EXPECT_TRUE(V.Joint.contains("Decl"));
  EXPECT_TRUE(V.Joint.contains("0"));
  EXPECT_TRUE(V.Joint.contains("arr"));
  EXPECT_TRUE(V.Target.contains("sum"));
  EXPECT_TRUE(V.Target.contains("max"));
  EXPECT_TRUE(V.Target.contains("array"));
}

//===----------------------------------------------------------------------===//
// LIGER
//===----------------------------------------------------------------------===//

TEST(LigerTest, EncoderShapesAndDeterminism) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerNamePredictor Net(V.Joint, V.Target, tinyLigerConfig(), 42);
  Var Loss1 = Net.loss(Samples[0]);
  Var Loss2 = Net.loss(Samples[0]);
  EXPECT_FLOAT_EQ(Loss1->Value[0], Loss2->Value[0]); // same params, input
  EXPECT_GT(Loss1->Value[0], 0.0f);
  EXPECT_FALSE(std::isnan(Loss1->Value[0]));
}

TEST(LigerTest, SameSeedSameModel) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerNamePredictor A(V.Joint, V.Target, tinyLigerConfig(), 7);
  LigerNamePredictor B(V.Joint, V.Target, tinyLigerConfig(), 7);
  EXPECT_FLOAT_EQ(A.loss(Samples[0])->Value[0],
                  B.loss(Samples[0])->Value[0]);
}

TEST(LigerTest, BackwardProducesParameterGradients) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerNamePredictor Net(V.Joint, V.Target, tinyLigerConfig(), 42);
  backward(Net.loss(Samples[0]));
  EXPECT_GT(Net.params().gradNorm(), 0.0);
}

TEST(LigerTest, OverfitsTinyCorpus) {
  // Two distinct programs with distinct names: LIGER must be able to
  // memorize them (sanity that all layers learn jointly).
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerNamePredictor Net(V.Joint, V.Target, tinyLigerConfig(), 42);
  AdamOptions Opts;
  Opts.LearningRate = 0.01f;
  Adam Opt(Net.params(), Opts);
  for (int Iter = 0; Iter < 60; ++Iter) {
    std::vector<Var> Losses;
    for (const MethodSample &Sample : Samples)
      Losses.push_back(Net.loss(Sample));
    backward(meanLoss(Losses));
    Opt.step();
  }
  std::vector<std::vector<std::string>> Predicted = Net.predict(Samples);
  EXPECT_EQ(Predicted[0], Samples[0].NameSubtokens);
  EXPECT_EQ(Predicted[1], Samples[1].NameSubtokens);
}

TEST(LigerTest, FusionStatsAreSensible) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerNamePredictor Net(V.Joint, V.Target, tinyLigerConfig(), 42);
  FusionStats Stats;
  Net.predict({Samples[0]}, &Stats);
  EXPECT_GT(Stats.FusionSteps, 0u);
  EXPECT_GE(Stats.staticMean(), 0.0);
  EXPECT_LE(Stats.staticMean(), 1.0);
}

TEST(LigerTest, AblationsRunAndDiffer) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerConfig Full = tinyLigerConfig();

  LigerConfig NoStatic = Full;
  NoStatic.UseStaticFeature = false;
  LigerConfig NoDynamic = Full;
  NoDynamic.UseDynamicFeature = false;
  LigerConfig NoAttention = Full;
  NoAttention.UseFusionAttention = false;
  LigerConfig MeanPool = Full;
  MeanPool.MeanPoolPrograms = true;

  float FullLoss =
      LigerNamePredictor(V.Joint, V.Target, Full, 42).loss(Samples[0])
          ->Value[0];
  for (const LigerConfig &Config :
       {NoStatic, NoDynamic, NoAttention, MeanPool}) {
    LigerNamePredictor Net(V.Joint, V.Target, Config, 42);
    Var Loss = Net.loss(Samples[0]);
    EXPECT_FALSE(std::isnan(Loss->Value[0]));
    EXPECT_GT(Loss->Value[0], 0.0f);
  }
  // The no-dynamic ablation must actually change the computation.
  LigerNamePredictor NoDynNet(V.Joint, V.Target, NoDynamic, 42);
  EXPECT_NE(FullLoss, NoDynNet.loss(Samples[0])->Value[0]);
}

TEST(LigerTest, NoDynamicIgnoresConcreteTraces) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerConfig NoDynamic = tinyLigerConfig();
  NoDynamic.UseDynamicFeature = false;
  LigerNamePredictor Net(V.Joint, V.Target, NoDynamic, 42);

  // Dropping all concrete traces must not change the symbolic-only
  // encoding.
  MethodSample Stripped = Samples[0];
  for (BlendedTrace &Path : Stripped.Traces.Paths) {
    Path.Concrete.clear();
    Path.Inputs.clear();
  }
  EXPECT_FLOAT_EQ(Net.loss(Samples[0])->Value[0],
                  Net.loss(Stripped)->Value[0]);
}

TEST(LigerTest, ClassifierPredictsValidClass) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerClassifier Net(V.Joint, 2, tinyLigerConfig(), 42);
  int Predicted = Net.predict(Samples[0]);
  EXPECT_GE(Predicted, 0);
  EXPECT_LT(Predicted, 2);
  Tensor Embedding = Net.embed(Samples[0].Traces);
  EXPECT_EQ(Embedding.size(), tinyLigerConfig().Hidden);
}

TEST(LigerTest, ClassifierLearnsTinyCorpus) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerClassifier Net(V.Joint, 2, tinyLigerConfig(), 42);
  AdamOptions Opts;
  Opts.LearningRate = 0.01f;
  Adam Opt(Net.params(), Opts);
  for (int Iter = 0; Iter < 40; ++Iter) {
    std::vector<Var> Losses;
    for (const MethodSample &Sample : Samples)
      Losses.push_back(Net.loss(Sample));
    backward(meanLoss(Losses));
    Opt.step();
  }
  EXPECT_EQ(Net.predict(Samples[0]), 0);
  EXPECT_EQ(Net.predict(Samples[1]), 1);
}

//===----------------------------------------------------------------------===//
// DYPRO
//===----------------------------------------------------------------------===//

TEST(DyproTest, LossAndPredictRun) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  DyproConfig Config;
  Config.EmbedDim = 12;
  Config.Hidden = 12;
  Config.AttnHidden = 12;
  DyproNamePredictor Net(V.Joint, V.Target, Config, 42);
  Var Loss = Net.loss(Samples[0]);
  EXPECT_GT(Loss->Value[0], 0.0f);
  backward(Loss);
  EXPECT_GT(Net.params().gradNorm(), 0.0);
  auto Predicted = Net.predict({Samples[0]});
  EXPECT_LE(Predicted[0].size(), MaxDecodeLen);
}

TEST(DyproTest, IgnoresSymbolicDimension) {
  // DYPRO must be a pure dynamic model: replacing the symbolic trace
  // steps with an empty sequence (keeping states) must not change it.
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  DyproConfig Config;
  Config.EmbedDim = 12;
  Config.Hidden = 12;
  DyproNamePredictor Net(V.Joint, V.Target, Config, 42);

  MethodSample Stripped = Samples[0];
  for (BlendedTrace &Path : Stripped.Traces.Paths)
    Path.Symbolic.Steps.clear();
  EXPECT_FLOAT_EQ(Net.loss(Samples[0])->Value[0],
                  Net.loss(Stripped)->Value[0]);
}

TEST(DyproTest, ClassifierLearns) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  DyproConfig Config;
  Config.EmbedDim = 12;
  Config.Hidden = 12;
  DyproClassifier Net(V.Joint, 2, Config, 42);
  AdamOptions Opts;
  Opts.LearningRate = 0.01f;
  Adam Opt(Net.params(), Opts);
  for (int Iter = 0; Iter < 40; ++Iter) {
    std::vector<Var> Losses;
    for (const MethodSample &Sample : Samples)
      Losses.push_back(Net.loss(Sample));
    backward(meanLoss(Losses));
    Opt.step();
  }
  EXPECT_EQ(Net.predict(Samples[0]), 0);
  EXPECT_EQ(Net.predict(Samples[1]), 1);
}

TEST(DyproEquivalenceTest, EncodeMatchesStringKeyedOracle) {
  // The vocabulary comes from the first sample only, so the others read
  // unknown variable names and values, whose distinct spellings the
  // oracle embeds as separate <unk> nodes and the encoder as one; the
  // 16-element array and the 13-field struct are cut to
  // MaxFlattenedValues leaves.
  std::vector<MethodSample> Samples = tinyCorpus();
  Samples.insert(Samples.begin(), makeSample(R"(
int[] squares(int n) {
  int[] out = new int[16];
  for (int i = 0; i < 16; i++)
    out[i] = i * i + n;
  return out;
}
)"));
  Samples.push_back(makeSample(R"(
string shout(string word, int times) {
  string loud = word;
  for (int i = 0; i < times; i++)
    loud = loud + "!";
  return loud;
}
)"));
  Samples.push_back(makeSample(R"(
struct Wide { int a; int b; int c; int d; int e; int f; int g;
              int h; int i; int j; int k; int l; int m; }
int wideSum(int k) {
  Wide w = new Wide(k, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, k + 1);
  w.b = w.a * 3;
  return w.a + w.b + w.m;
}
)"));
  TinyVocabs V = buildVocabs({Samples[0]});
  DyproConfig Config;
  Config.EmbedDim = 6;
  Config.Hidden = 7;
  Config.AttnHidden = 5;
  Config.MaxAttentionMemory = 24;
  DyproNamePredictor Net(V.Joint, V.Target, Config, 1234);

  size_t Unknown = 0, CutObjects = 0;
  for (const MethodSample &Sample : Samples) {
    for (const std::string &Name : Sample.Traces.VarNames)
      Unknown += V.Joint.lookup(Name) == Vocabulary::Unk;
    for (const BlendedTrace &Path : Sample.Traces.Paths)
      for (const StateTrace &States : Path.Concrete)
        for (const ProgramState &State : States.States)
          for (const Value &Val : State.Values) {
            std::vector<std::string> Tokens = valueTokens(Val);
            CutObjects += Tokens.size() > MaxFlattenedValues;
            for (const std::string &Token : Tokens)
              Unknown += V.Joint.lookup(Token) == Vocabulary::Unk;
          }

    GraphArena Arena;
    GraphArena::Scope Scope(Arena);
    GraphEncoding Got = Net.encoder().encode(Sample.Traces);
    GraphEncoding Want =
        reference::dyproEncode(Net.params(), V.Joint, Config, Sample.Traces);
    const std::string &Name = Sample.Fn->Name;
    ASSERT_EQ(std::memcmp(Got.ProgramEmbedding->Value.data(),
                          Want.ProgramEmbedding->Value.data(),
                          Config.Hidden * sizeof(float)),
              0)
        << Name;
    ASSERT_EQ(Got.Memory.size(), Want.Memory.size()) << Name;
    for (size_t I = 0; I < Got.Memory.size(); ++I)
      EXPECT_EQ(std::memcmp(Got.Memory[I]->Value.data(),
                            Want.Memory[I]->Value.data(),
                            Config.Hidden * sizeof(float)),
                0)
          << Name << " memory row " << I;
  }
  EXPECT_GT(Unknown, 0u);
  EXPECT_GT(CutObjects, 0u);
}

//===----------------------------------------------------------------------===//
// code2vec / code2seq
//===----------------------------------------------------------------------===//

TEST(Code2VecTest, ExtractionIsDeterministic) {
  auto Samples = tinyCorpus();
  Code2VecVocabularies V = buildCode2VecVocabularies(Samples);
  auto A = extractPathContexts(Samples[0], V.Tokens, V.Paths);
  auto B = extractPathContexts(Samples[0], V.Tokens, V.Paths);
  ASSERT_EQ(A.size(), B.size());
  ASSERT_FALSE(A.empty());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Source, B[I].Source);
    EXPECT_EQ(A[I].Path, B[I].Path);
    EXPECT_EQ(A[I].Target, B[I].Target);
  }
}

TEST(Code2VecTest, LearnsTinyCorpus) {
  auto Samples = tinyCorpus();
  Code2VecVocabularies V = buildCode2VecVocabularies(Samples);
  Code2VecConfig Config;
  Config.EmbedDim = 12;
  Config.CodeDim = 12;
  Code2VecNamePredictor Net(V.Tokens, V.Paths, V.Names, Config, 42);
  AdamOptions Opts;
  Opts.LearningRate = 0.02f;
  Adam Opt(Net.params(), Opts);
  for (int Iter = 0; Iter < 60; ++Iter) {
    std::vector<Var> Losses;
    for (const MethodSample &Sample : Samples)
      Losses.push_back(Net.loss(Sample));
    backward(meanLoss(Losses));
    Opt.step();
  }
  EXPECT_EQ(Net.predict(Samples[0]), Samples[0].NameSubtokens);
  EXPECT_EQ(Net.predict(Samples[1]), Samples[1].NameSubtokens);
}

TEST(Code2VecTest, StaticModelIgnoresTraces) {
  auto Samples = tinyCorpus();
  Code2VecVocabularies V = buildCode2VecVocabularies(Samples);
  Code2VecConfig Config;
  Config.EmbedDim = 12;
  Config.CodeDim = 12;
  Code2VecNamePredictor Net(V.Tokens, V.Paths, V.Names, Config, 42);
  MethodSample Stripped = Samples[0];
  Stripped.Traces.Paths.clear();
  EXPECT_FLOAT_EQ(Net.loss(Samples[0])->Value[0],
                  Net.loss(Stripped)->Value[0]);
}

TEST(Code2SeqTest, LearnsTinyCorpus) {
  auto Samples = tinyCorpus();
  Code2SeqVocabularies V = buildCode2SeqVocabularies(Samples);
  TinyVocabs Dyn = buildVocabs(Samples);
  Code2SeqConfig Config;
  Config.EmbedDim = 12;
  Config.Hidden = 12;
  Config.AttnHidden = 12;
  Code2SeqNamePredictor Net(V.Subtokens, V.Nodes, Dyn.Target, Config, 42);
  AdamOptions Opts;
  Opts.LearningRate = 0.01f;
  Adam Opt(Net.params(), Opts);
  for (int Iter = 0; Iter < 80; ++Iter) {
    std::vector<Var> Losses;
    for (const MethodSample &Sample : Samples)
      Losses.push_back(Net.loss(Sample));
    backward(meanLoss(Losses));
    Opt.step();
  }
  std::vector<std::vector<std::string>> Predicted = Net.predict(Samples);
  EXPECT_EQ(Predicted[0], Samples[0].NameSubtokens);
  EXPECT_EQ(Predicted[1], Samples[1].NameSubtokens);
}

TEST(Code2SeqTest, ClassifierRuns) {
  auto Samples = tinyCorpus();
  Code2SeqVocabularies V = buildCode2SeqVocabularies(Samples);
  Code2SeqConfig Config;
  Config.EmbedDim = 12;
  Config.Hidden = 12;
  Code2SeqClassifier Net(V.Subtokens, V.Nodes, 2, Config, 42);
  Var Loss = Net.loss(Samples[0]);
  EXPECT_GT(Loss->Value[0], 0.0f);
  backward(Loss);
  EXPECT_GT(Net.params().gradNorm(), 0.0);
  int Predicted = Net.predict(Samples[1]);
  EXPECT_GE(Predicted, 0);
  EXPECT_LT(Predicted, 2);
}

//===----------------------------------------------------------------------===//
// Checkpoint round trips for every model's ParamStore
//===----------------------------------------------------------------------===//

namespace {

/// Saves \p Store, perturbs every parameter, loads the file back, and
/// checks bitwise recovery.
void roundTripStore(ParamStore &Store, const std::string &Tag) {
  std::string Path = testing::TempDir() + "/liger_model_" + Tag + ".ckpt";
  std::vector<std::vector<float>> Original;
  for (const Var &P : Store.params())
    Original.emplace_back(P->Value.data(),
                          P->Value.data() + P->Value.size());
  std::string Error;
  ASSERT_TRUE(Store.save(Path, &Error)) << Tag << ": " << Error;
  for (const Var &P : Store.params())
    P->Value.zero();
  ASSERT_TRUE(Store.load(Path, &Error)) << Tag << ": " << Error;
  ASSERT_EQ(Store.params().size(), Original.size());
  for (size_t I = 0; I < Original.size(); ++I) {
    const Tensor &T = Store.params()[I]->Value;
    ASSERT_EQ(T.size(), Original[I].size()) << Tag;
    EXPECT_EQ(std::memcmp(T.data(), Original[I].data(),
                          T.size() * sizeof(float)),
              0)
        << Tag << " parameter " << Store.names()[I];
  }
}

} // namespace

TEST(CheckpointTest, AllFourModelStoresRoundTrip) {
  auto Samples = tinyCorpus();
  TinyVocabs Dyn = buildVocabs(Samples);
  Code2VecVocabularies C2vVocabs = buildCode2VecVocabularies(Samples);
  Code2SeqVocabularies C2sVocabs = buildCode2SeqVocabularies(Samples);

  Code2VecConfig C2v;
  C2v.EmbedDim = 12;
  C2v.CodeDim = 12;
  Code2VecNamePredictor C2vNet(C2vVocabs.Tokens, C2vVocabs.Paths,
                               C2vVocabs.Names, C2v, 42);
  roundTripStore(C2vNet.params(), "code2vec");

  Code2SeqConfig C2s;
  C2s.EmbedDim = 12;
  C2s.Hidden = 12;
  C2s.AttnHidden = 12;
  Code2SeqNamePredictor C2sNet(C2sVocabs.Subtokens, C2sVocabs.Nodes,
                               Dyn.Target, C2s, 42);
  roundTripStore(C2sNet.params(), "code2seq");

  DyproConfig Dy;
  Dy.EmbedDim = 12;
  Dy.Hidden = 12;
  Dy.AttnHidden = 12;
  DyproNamePredictor DyNet(Dyn.Joint, Dyn.Target, Dy, 42);
  roundTripStore(DyNet.params(), "dypro");

  LigerNamePredictor LgNet(Dyn.Joint, Dyn.Target, tinyLigerConfig(), 42);
  roundTripStore(LgNet.params(), "liger");

  // A checkpoint from one model must not load into another: the
  // parameter names diverge, with a diagnostic saying how.
  std::string LigerPath = testing::TempDir() + "/liger_model_liger.ckpt";
  std::string Error;
  EXPECT_FALSE(DyNet.params().load(LigerPath, &Error));
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Seeded parameter layout
//===----------------------------------------------------------------------===//

namespace {

/// A frozen vocabulary of \p Count tokens Prefix0, Prefix1, ... after
/// the specials.
Vocabulary handVocab(const std::string &Prefix, int Count) {
  Vocabulary V;
  for (int I = 0; I < Count; ++I)
    V.add(strCat(Prefix, std::to_string(I)));
  V.freeze();
  return V;
}

std::string layoutDigest(const ParamStore &Store) {
  return WeightImage::fromStore(Store).version().hex();
}

// Weight-image digests of the eight stores below. The AVX2 build
// compiles with -mfma, which contracts Rng::nextFloat's multiply-add,
// so its seeded draws round differently from the scalar build's: one
// set per kernel configuration, as ExperimentDigestTest keeps.
#if LIGER_SIMD_AVX2
constexpr const char *LigerNameLayout = "243f7016aa3eb361796690102a291881";
constexpr const char *LigerClassifierLayout =
    "e934aac7e436664cb1666752a20f3d61";
constexpr const char *DyproNameLayout = "04490051512a70fa168ef620df329cc9";
constexpr const char *Code2SeqNameLayout = "5bdfc224219b55bca14e98c6af498f64";
constexpr const char *DyproClassifierLayout =
    "59ae9b08bc2e7c6a6ad4578469e0bf61";
constexpr const char *Code2SeqClassifierLayout =
    "62ba352b9b0129261c3852e6ace066bf";
constexpr const char *Code2VecNameLayout =
    "3b4058dc2773cb7b5a3c7b5129cea5e5";
constexpr const char *Code2VecClassifierLayout =
    "b25d658d419d9b83260b79801a39ba35";
#else
constexpr const char *LigerNameLayout = "1bbd59df8e0d0ed000baa88c171a84e8";
constexpr const char *LigerClassifierLayout =
    "6c09e849c7087e647add686521f3e710";
constexpr const char *DyproNameLayout = "c71a4424f7a46a6ad846a0f79854b259";
constexpr const char *Code2SeqNameLayout = "bb84edb64eddfa7240205a8bca11a9a2";
constexpr const char *DyproClassifierLayout =
    "50857297e2c8ff2d2ff6766f9137926e";
constexpr const char *Code2SeqClassifierLayout =
    "077b44c9036a81e35134486615089552";
constexpr const char *Code2VecNameLayout =
    "09f8fc19d0bdfbc8d1034144a9fee1e9";
constexpr const char *Code2VecClassifierLayout =
    "23e5c3c47607c6e1a903ca14bfada9d4";
#endif

} // namespace

TEST(ParamLayoutTest, SeededLayoutsArePinned) {
  // LGCK checkpoints and LGWI images bind parameters by name and shape,
  // and a fixed seed must keep drawing the same initial weights.
  // The weight-image digest covers names, shapes and initial float
  // bits, so a renamed, reshaped or redrawn tensor moves it even where
  // a save/load round trip within one build would still pass. Distinct
  // embed, hidden and attention widths keep a transposed shape visible.
  Vocabulary Joint = handVocab("tok", 23);
  Vocabulary Target = handVocab("name", 9);
  Vocabulary Subtokens = handVocab("sub", 17);
  Vocabulary Nodes = handVocab("node", 11);

  LigerConfig Lg;
  Lg.EmbedDim = 6;
  Lg.Hidden = 7;
  Lg.AttnHidden = 5;
  LigerNamePredictor LgName(Joint, Target, Lg, 1234);
  EXPECT_EQ(layoutDigest(LgName.params()), LigerNameLayout);
  LigerClassifier LgClass(Joint, 4, Lg, 1234);
  EXPECT_EQ(layoutDigest(LgClass.params()), LigerClassifierLayout);

  DyproConfig Dy;
  Dy.EmbedDim = 6;
  Dy.Hidden = 7;
  Dy.AttnHidden = 5;
  DyproNamePredictor DyName(Joint, Target, Dy, 1234);
  EXPECT_EQ(layoutDigest(DyName.params()), DyproNameLayout);
  DyproClassifier DyClass(Joint, 4, Dy, 1234);
  EXPECT_EQ(layoutDigest(DyClass.params()), DyproClassifierLayout);

  Code2SeqConfig C2s;
  C2s.EmbedDim = 6;
  C2s.Hidden = 7;
  C2s.AttnHidden = 5;
  Code2SeqNamePredictor C2sName(Subtokens, Nodes, Target, C2s, 1234);
  EXPECT_EQ(layoutDigest(C2sName.params()), Code2SeqNameLayout);
  Code2SeqClassifier C2sClass(Subtokens, Nodes, 4, C2s, 1234);
  EXPECT_EQ(layoutDigest(C2sClass.params()), Code2SeqClassifierLayout);

  // code2vec's path vocabulary plays the node vocabulary's part, and
  // its whole-name vocabulary the target's.
  Code2VecConfig C2v;
  C2v.EmbedDim = 6;
  C2v.CodeDim = 7;
  Code2VecNamePredictor C2vName(Subtokens, Nodes, Target, C2v, 1234);
  EXPECT_EQ(layoutDigest(C2vName.params()), Code2VecNameLayout);
  Code2VecClassifier C2vClass(Subtokens, Nodes, 4, C2v, 1234);
  EXPECT_EQ(layoutDigest(C2vClass.params()), Code2VecClassifierLayout);
}

//===----------------------------------------------------------------------===//
// Batched decoder: lossBatch
//===----------------------------------------------------------------------===//

namespace {

/// A standalone decoder over parameter-backed embeddings/memories, so
/// the lockstep scheduler sees ragged targets and ragged memories.
struct DecoderFixture {
  ParamStore Store;
  SeqDecoder Dec;
  std::vector<GraphEncoding> Encs;
  std::vector<std::vector<int>> Targets;

  DecoderFixture() {
    Rng R(91);
    SeqDecoderConfig Config;
    Config.TargetVocabSize = 9;
    Config.EmbedDim = 6;
    Config.Hidden = 8;
    Config.AttnHidden = 7;
    Config.MemoryDim = 5;
    Config.InitDim = 6;
    Dec = SeqDecoder(Store, "dec", Config, R);
    const size_t MemLens[] = {2, 4, 3};
    for (size_t S = 0; S < 3; ++S) {
      GraphEncoding &Enc = Encs.emplace_back();
      Enc.ProgramEmbedding =
          Store.addParam(strCat("e", std::to_string(S)),
                         Tensor::uniform(Config.InitDim, 0.9f, R));
      for (size_t T = 0; T < MemLens[S]; ++T)
        Enc.Memory.push_back(Store.addParam(
            strCat("m", std::to_string(S), "_", std::to_string(T)),
            Tensor::uniform(Config.MemoryDim, 0.9f, R)));
    }
    // Ragged target lengths exercise lanes retiring mid-schedule.
    Targets = {{4, 5, Vocabulary::Eos},
               {6, Vocabulary::Eos},
               {4, 6, 7, 5, Vocabulary::Eos}};
  }
};

} // namespace

TEST(BatchedLossEquivalenceTest, LossBatchValuesMatchLoss) {
  // The per-sample loss is a batch of one, whose lane runs the
  // single-sample ops (step, contextOf, softmaxCrossEntropy).
  DecoderFixture F;
  std::vector<Var> Batched = F.Dec.lossBatch(F.Encs, F.Targets);
  ASSERT_EQ(Batched.size(), 3u);
  for (size_t S = 0; S < 3; ++S) {
    Var Ref = F.Dec.lossBatch({F.Encs[S]}, {F.Targets[S]})[0];
    EXPECT_EQ(Batched[S]->Value[0], Ref->Value[0]) << "sample " << S;
  }
}

TEST(BatchedLossEquivalenceTest, LigerLossBatchMatchesLoss) {
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerNamePredictor Net(V.Joint, V.Target, tinyLigerConfig(), 42);
  std::vector<const MethodSample *> Group;
  for (const MethodSample &Sample : Samples)
    Group.push_back(&Sample);
  std::vector<Var> Batched = Net.lossBatch(Group);
  ASSERT_EQ(Batched.size(), Samples.size());
  for (size_t S = 0; S < Samples.size(); ++S)
    EXPECT_EQ(Batched[S]->Value[0], Net.loss(Samples[S])->Value[0])
        << "sample " << S;
}

TEST(BatchedLossEquivalenceTest, CrossSampleStateCacheKeepsLossValuesBitwise) {
  // encodeBatch shares one state-embedding cache across the samples of
  // a batch. Repeating every sample makes each state of the repeats a
  // cross-sample cache hit; the shared nodes must carry bitwise the
  // values each sample's own loss() computes.
  auto Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerNamePredictor Net(V.Joint, V.Target, tinyLigerConfig(), 42);
  std::vector<const MethodSample *> Group;
  for (int Repeat = 0; Repeat < 2; ++Repeat)
    for (const MethodSample &Sample : Samples)
      Group.push_back(&Sample);
  std::vector<Var> Batched = Net.lossBatch(Group);
  ASSERT_EQ(Batched.size(), Group.size());
  for (size_t S = 0; S < Group.size(); ++S)
    EXPECT_EQ(Batched[S]->Value[0], Net.loss(*Group[S])->Value[0])
        << "lane " << S;
}

namespace {

/// A LIGER name model over tinyCorpus() repeated \p Repeats times in
/// one batch: from the second copy on, every object value and state
/// prefix is one the batch has already embedded.
struct RepeatedCorpus {
  std::vector<MethodSample> Samples = tinyCorpus();
  TinyVocabs V = buildVocabs(Samples);
  LigerNamePredictor Net;
  std::vector<const MethodSample *> Group;

  explicit RepeatedCorpus(int Repeats)
      : Net(V.Joint, V.Target, tinyLigerConfig(), 42) {
    for (int Repeat = 0; Repeat < Repeats; ++Repeat)
      for (const MethodSample &Sample : Samples)
        Group.push_back(&Sample);
  }
};

/// Largest |entry| of a gradient slot.
double maxAbs(const Tensor &G) {
  double Max = 0;
  for (size_t I = 0; I < G.size(); ++I)
    Max = std::max(Max, static_cast<double>(std::abs(G[I])));
  return Max;
}

/// One backward over the sum of lossBatch against per-sample loss()
/// backwards, each in a fresh arena.
void expectBatchGradientsMatchPerSampleSum(RepeatedCorpus &C) {
  GradSink Batched, Reference;
  {
    GraphArena Arena;
    GraphArena::Scope Scope(Arena);
    backward(sumV(stackScalars(C.Net.lossBatch(C.Group))), Batched);
  }
  for (const MethodSample *Sample : C.Group) {
    GraphArena Arena;
    GraphArena::Scope Scope(Arena);
    backward(C.Net.loss(*Sample), Reference);
  }

  // The two sums accumulate in different orders, so entries agree to
  // rounding, relative to the parameter's largest gradient. The floor
  // covers parameters whose true gradient is zero (an attention
  // scorer's output bias such as liger.a1.l2.b: softmax is shift
  // invariant), whose entries are rounding noise; a shared subgraph
  // dropped or counted twice would show up as an O(1) difference.
  const std::vector<std::string> &Names = C.Net.params().names();
  size_t N = Names.size();
  double GlobalMax = 0;
  for (size_t P = 0; P < N; ++P)
    if (Reference.touched(P))
      GlobalMax = std::max(GlobalMax, maxAbs(Reference.grad(P)));
  ASSERT_GT(GlobalMax, 0.0);
  for (size_t P = 0; P < N; ++P) {
    ASSERT_EQ(Batched.touched(P), Reference.touched(P)) << Names[P];
    if (!Reference.touched(P))
      continue;
    const Tensor &Got = Batched.grad(P), &Want = Reference.grad(P);
    ASSERT_EQ(Got.size(), Want.size()) << Names[P];
    double Tol = 1e-4 * std::max(maxAbs(Want), 1e-3 * GlobalMax);
    double Worst = 0;
    for (size_t I = 0; I < Want.size(); ++I)
      Worst = std::max(Worst, std::abs(static_cast<double>(Got[I]) -
                                       static_cast<double>(Want[I])));
    EXPECT_LE(Worst, Tol) << Names[P];
  }
}

} // namespace

TEST(BatchedLossEquivalenceTest, LossBatchGradientsMatchPerSampleSum) {
  RepeatedCorpus C(2);
  expectBatchGradientsMatchPerSampleSum(C);
}
