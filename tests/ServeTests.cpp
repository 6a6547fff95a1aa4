//===-- tests/ServeTests.cpp - Serving-stack tests -------------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving contracts of DESIGN.md §13:
///
///  - InferenceEquivalenceTest: the forward-only LigerInference
///    runtime is bitwise-identical to the autodiff forward — program
///    embeddings memcmp-equal, greedy decodes token-equal to the graph
///    decode oracle (reference::decodeGreedy) — with the embedding
///    store cold, warm, and filled in reverse order, and cold and warm
///    for the no-static, no-dynamic, no-attention and mean-pool
///    configs; both skip the paths a feature ablation leaves
///    featureless. The prefix-bound
///    GreedyDecoder decodes DYPRO's and code2seq's graph encodings
///    exactly as the oracle does, and so does their predict().
///  - ValueTokenIdsTest / InferenceStoreTest: the store's token ids
///    equal the vocabulary's ids of valueToken()/valueTokens(); the
///    kind tag keeps 5 and [5] apart; rebind() keeps the store for one
///    digest and matches a fresh engine for another; served requests
///    match fresh engines bitwise.
///  - WeightImageTest: LGWI round-trips are bitwise; truncation at
///    every byte offset and every single-byte flip fail cleanly (the
///    LGCK fuzz-harness discipline applied to the serving image).
///  - ServeDeadlineTest / ServeStatusTest: per-request wall-clock
///    deadlines surface as a distinct terminal status and stats
///    counter; pipeline filters map to their statuses.
///  - ServeStatsConcurrencyTest: stats() during concurrent handle()
///    calls reads only whole requests' counters.
///  - ServeSharedCacheTest / TraceCacheConcurrencyTest: engines and
///    raw caches sharing one on-disk directory serve concurrent
///    readers (and writers) without corruption or result drift.
///
//===----------------------------------------------------------------------===//

#include "ReferenceGraphs.h"

#include "dataset/Tasks.h"
#include "lang/Parser.h"
#include "models/Code2Seq.h"
#include "models/Dypro.h"
#include "models/Inference.h"
#include "nn/GraphArena.h"
#include "serve/Serve.h"
#include "support/Hash.h"
#include "testgen/TraceCache.h"
#include "testgen/TraceCollector.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <thread>

using namespace liger;

namespace {

/// Tiny but non-degenerate scale: a few methods, real traces.
ExperimentScale tinyScale() {
  ExperimentScale Scale;
  Scale.MethodsMed = 12;
  Scale.Hidden = 10;
  Scale.EmbedDim = 8;
  Scale.TargetPaths = 3;
  Scale.ExecutionsPerPath = 2;
  Scale.Seed = 11;
  return Scale;
}

std::vector<const MethodSample *> allSamples(const NameTask &Task) {
  std::vector<const MethodSample *> Out;
  for (const MethodSample &S : Task.Split.Train)
    Out.push_back(&S);
  for (const MethodSample &S : Task.Split.Valid)
    Out.push_back(&S);
  for (const MethodSample &S : Task.Split.Test)
    Out.push_back(&S);
  return Out;
}

/// One pass of \p Samples, in the given order, through \p Inference,
/// each checked against the graph forward: embeddings memcmp-equal,
/// decodes token-equal to the graph decode of the graph encoding.
void expectRoundBitwise(LigerNamePredictor &Net, LigerInference &Inference,
                        const std::vector<const MethodSample *> &Samples,
                        const LigerConfig &Config, const Vocabulary &Target,
                        const char *Round) {
  for (const MethodSample *S : Samples) {
    GraphArena::current().reset();
    GraphEncoding Enc = Net.encoder().encode(S->Traces);
    const float *Embedding = Inference.encode(S->Traces);
    ASSERT_EQ(std::memcmp(Embedding, Enc.ProgramEmbedding->Value.data(),
                          Config.Hidden * sizeof(float)),
              0)
        << Round << " round";
    std::vector<int> Want =
        reference::decodeGreedy(Net.params(), "liger.dec",
                                Enc.ProgramEmbedding, Enc.Memory,
                                MaxDecodeLen);
    EXPECT_EQ(Inference.predictName(S->Traces), idsToSubtokens(Want, Target))
        << Round << " round";
  }
}

/// Checks bitwise encode + exact decode equivalence between the
/// autodiff model and the forward-only runtime for the serving config
/// at tinyScale() as changed by \p Adjust: a cold and a warm round, and
/// with \p ReverseRounds the two reverse-order rounds and the store-hit
/// checks too.
void expectForwardEquivalence(const std::function<void(LigerConfig &)> &Adjust,
                              bool ReverseRounds) {
  ExperimentScale Scale = tinyScale();
  NameTask Task = buildNameTask(Scale, /*Large=*/false);
  LigerConfig Config = serveLigerConfig(Scale);
  Adjust(Config);
  LigerNamePredictor Net(Task.Joint, Task.Target, Config, Scale.Seed);
  WeightImage Image = WeightImage::fromStore(Net.params());
  LigerInference Inference(Image, Task.Joint, &Task.Target, Config);

  std::vector<const MethodSample *> Samples = allSamples(Task);
  ASSERT_FALSE(Samples.empty());
  std::vector<const MethodSample *> Reversed(Samples.rbegin(),
                                             Samples.rend());

  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  // The first round runs with a cold embedding store, the second with a
  // warm one, the third warm in reverse order. A second engine then
  // starts cold in reverse order, so each method meets objects, trie
  // prefixes and statements that other methods stored.
  expectRoundBitwise(Net, Inference, Samples, Config, Task.Target, "cold");
  expectRoundBitwise(Net, Inference, Samples, Config, Task.Target, "warm");
  if (!ReverseRounds)
    return;
  expectRoundBitwise(Net, Inference, Reversed, Config, Task.Target,
                     "warm reverse");
  LigerInference Fresh(Image, Task.Joint, &Task.Target, Config);
  expectRoundBitwise(Net, Fresh, Reversed, Config, Task.Target,
                     "cold reverse");
  // Warm rounds actually hit the store.
  EXPECT_GT(Inference.cacheStats().StmtHits, 0u);
  EXPECT_GT(Inference.cacheStats().StateHits, 0u);
}

std::string tempPath(const char *Name) {
  return (std::filesystem::temp_directory_path() / Name).string();
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// A small weight image with several ranks and shapes.
WeightImage tinyImage(uint64_t Seed) {
  Vocabulary Joint, Target;
  Joint.add("x");
  Joint.add("y");
  Target.add("sum");
  LigerConfig Config;
  Config.EmbedDim = 4;
  Config.Hidden = 5;
  Config.AttnHidden = 3;
  LigerNamePredictor Net(Joint, Target, Config, Seed);
  return WeightImage::fromStore(Net.params());
}

} // namespace

//===----------------------------------------------------------------------===//
// InferenceEquivalenceTest
//===----------------------------------------------------------------------===//

TEST(InferenceEquivalenceTest, GruEncodeDecodeBitwise) {
  expectForwardEquivalence([](LigerConfig &) {}, /*ReverseRounds=*/true);
}

// The ablation configs the figure binaries train (§6.3), each through
// its own branch of the graph encoder: the lane filters of the feature
// ablations, uniform fusion at every step, and mean pooling over paths.
TEST(InferenceEquivalenceTest, NoStaticFeatureBitwise) {
  expectForwardEquivalence(
      [](LigerConfig &C) { C.UseStaticFeature = false; },
      /*ReverseRounds=*/false);
}

TEST(InferenceEquivalenceTest, NoDynamicFeatureBitwise) {
  expectForwardEquivalence(
      [](LigerConfig &C) { C.UseDynamicFeature = false; },
      /*ReverseRounds=*/false);
}

TEST(InferenceEquivalenceTest, NoFusionAttentionBitwise) {
  expectForwardEquivalence(
      [](LigerConfig &C) { C.UseFusionAttention = false; },
      /*ReverseRounds=*/false);
}

TEST(InferenceEquivalenceTest, MeanPoolProgramsBitwise) {
  expectForwardEquivalence([](LigerConfig &C) { C.MeanPoolPrograms = true; },
                           /*ReverseRounds=*/false);
}

// The feature ablations drop paths that carry none of the config's
// features: an execution-less path without the static feature, a
// step-less path without the dynamic one. The corpus has no such path,
// so each method gets one appended, and both forwards must skip it.
TEST(InferenceEquivalenceTest, FeaturelessPathsAreSkipped) {
  ExperimentScale Scale = tinyScale();
  NameTask Task = buildNameTask(Scale, /*Large=*/false);
  for (bool StaticOff : {true, false}) {
    LigerConfig Config = serveLigerConfig(Scale);
    (StaticOff ? Config.UseStaticFeature : Config.UseDynamicFeature) = false;
    LigerNamePredictor Net(Task.Joint, Task.Target, Config, Scale.Seed);
    WeightImage Image = WeightImage::fromStore(Net.params());
    LigerInference Inference(Image, Task.Joint, &Task.Target, Config);
    GraphArena Arena;
    GraphArena::Scope Scope(Arena);
    for (const MethodSample *S : allSamples(Task)) {
      MethodTraces Traces = S->Traces;
      ASSERT_FALSE(Traces.Paths.empty());
      BlendedTrace Featureless = Traces.Paths[0];
      if (StaticOff)
        Featureless.Concrete.clear();
      else
        Featureless.Symbolic.Steps.clear();
      Traces.Paths.push_back(std::move(Featureless));
      Arena.reset();
      GraphEncoding Enc = Net.encoder().encode(Traces);
      EXPECT_EQ(std::memcmp(Inference.encode(Traces),
                            Enc.ProgramEmbedding->Value.data(),
                            Config.Hidden * sizeof(float)),
                0)
          << (StaticOff ? "no-static" : "no-dynamic");
    }
  }
}

namespace {

/// The values of a graph encoding's memory, as GreedyDecoder reads them.
std::vector<const float *> memoryOf(const std::vector<Var> &Memory) {
  std::vector<const float *> Out;
  for (const Var &Item : Memory)
    Out.push_back(Item->Value.data());
  return Out;
}

/// Checks, for every sample of the tiny task, that the GreedyDecoder
/// bound at \p Prefix decodes \p Encode's graph encoding to the ids of
/// the graph decode oracle, and that \p Predicted (the model's
/// predict() over the same samples) holds those names.
void expectGraphEncodingDecodes(
    ParamStore &Store, const std::string &Prefix,
    const SeqDecoderConfig &Config, const NameTask &Task,
    const std::vector<MethodSample> &Samples,
    const std::vector<std::vector<std::string>> &Predicted,
    const std::function<GraphEncoding(const MethodSample &)> &Encode) {
  ASSERT_EQ(Predicted.size(), Samples.size());
  WeightImage Image = WeightImage::fromStore(Store);
  GreedyDecoder Decoder(Image, Prefix, Config);
  ScratchArena Scratch;
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  size_t Tokens = 0;
  for (size_t I = 0; I < Samples.size(); ++I) {
    GraphEncoding Enc = Encode(Samples[I]);
    std::vector<int> Want = reference::decodeGreedy(
        Store, Prefix, Enc.ProgramEmbedding, Enc.Memory, MaxDecodeLen);
    EXPECT_EQ(Decoder.decode(Scratch, Enc.ProgramEmbedding->Value.data(),
                             memoryOf(Enc.Memory)),
              Want)
        << Prefix << " sample " << I;
    EXPECT_EQ(Predicted[I], idsToSubtokens(Want, Task.Target))
        << Prefix << " sample " << I;
    Tokens += Want.size();
    Scratch.reset();
    Arena.reset();
  }
  EXPECT_GT(Tokens, 0u) << "every decode was empty";
}

/// All of \p Task's samples, train, valid and test in order.
std::vector<MethodSample> allSampleValues(const NameTask &Task) {
  std::vector<MethodSample> Out;
  for (const MethodSample *S : allSamples(Task))
    Out.push_back(*S);
  return Out;
}

} // namespace

// DYPRO's and code2seq's graph encoders feed the same decoder as LIGER
// under their own prefixes; their predict() decodes the encoding's
// values through GreedyDecoder.
TEST(InferenceEquivalenceTest, DyproDecodeBitwise) {
  ExperimentScale Scale = tinyScale();
  NameTask Task = buildNameTask(Scale, /*Large=*/false);
  std::vector<MethodSample> Samples = allSampleValues(Task);
  DyproConfig Config;
  Config.EmbedDim = Scale.EmbedDim;
  Config.Hidden = Config.AttnHidden = Scale.Hidden;
  DyproNamePredictor Net(Task.Joint, Task.Target, Config, Scale.Seed);
  std::vector<std::vector<std::string>> Predicted = Net.predict(Samples);
  expectGraphEncodingDecodes(
      Net.params(), "dypro.dec",
      SeqDecoderConfig::forModel(Config, Task.Target), Task, Samples,
      Predicted,
      [&](const MethodSample &S) { return Net.encoder().encode(S.Traces); });
}

TEST(InferenceEquivalenceTest, Code2SeqDecodeBitwise) {
  ExperimentScale Scale = tinyScale();
  NameTask Task = buildNameTask(Scale, /*Large=*/false);
  std::vector<MethodSample> Samples = allSampleValues(Task);
  Code2SeqConfig Config;
  Config.EmbedDim = Scale.EmbedDim;
  Config.Hidden = Config.AttnHidden = Scale.Hidden;
  Code2SeqVocabularies V = buildCode2SeqVocabularies(Task.Split.Train);
  Code2SeqNamePredictor Net(V.Subtokens, V.Nodes, Task.Target, Config,
                            Scale.Seed);
  std::vector<std::vector<std::string>> Predicted = Net.predict(Samples);
  expectGraphEncodingDecodes(
      Net.params(), "c2s.dec", SeqDecoderConfig::forModel(Config, Task.Target),
      Task, Samples, Predicted,
      [&](const MethodSample &S) { return Net.encoder().encode(S); });
}

//===----------------------------------------------------------------------===//
// ValueTokenIdsTest / InferenceStoreTest
//===----------------------------------------------------------------------===//

namespace {

Value intArray(std::vector<int64_t> Xs) {
  std::vector<Value> Elems;
  for (int64_t X : Xs)
    Elems.push_back(Value::makeInt(X));
  return Value::makeArray(std::move(Elems));
}

/// The primitives whose tokens sit at valueToken's bucket edges.
std::vector<Value> edgePrimitives() {
  std::vector<Value> Out;
  for (int64_t X : {int64_t(-65), int64_t(-64), int64_t(64), int64_t(65),
                    int64_t(256), int64_t(257), int64_t(4096), int64_t(4097),
                    int64_t(65536), int64_t(65537), INT64_MIN, INT64_MAX})
    Out.push_back(Value::makeInt(X));
  for (int64_t X : {int64_t(-257), int64_t(-4097), int64_t(-65537), int64_t(0)})
    Out.push_back(Value::makeInt(X));
  Out.push_back(Value::makeBool(true));
  Out.push_back(Value::makeBool(false));
  Out.push_back(Value::undef());
  for (size_t Len : {0, 8, 9, 16, 17, 32, 33, 64, 65})
    Out.push_back(Value::makeString(std::string(Len, 'a')));
  return Out;
}

/// A vocabulary holding every token of \p Values plus <empty>, added in
/// reverse so no id coincides with a table position by accident.
Vocabulary vocabularyOf(const std::vector<Value> &Values) {
  Vocabulary Vocab;
  Vocab.add("<empty>");
  for (auto It = Values.rbegin(); It != Values.rend(); ++It) {
    if (It->isArray() || It->isStruct()) {
      for (const std::string &Token : valueTokens(*It))
        Vocab.add(Token);
    } else {
      Vocab.add(valueToken(*It));
    }
  }
  Vocab.freeze();
  return Vocab;
}

/// One path of one step whose single execution is in \p State: with
/// the static feature off, the program embedding is f3 over that
/// state's embedding alone.
MethodTraces singleStateTraces(ProgramState State) {
  MethodTraces Traces;
  BlendedTrace Path;
  Path.Symbolic.Steps.resize(1);
  StateTrace Exec;
  Exec.States.push_back(std::move(State));
  Path.Concrete.push_back(std::move(Exec));
  Traces.Paths.push_back(std::move(Path));
  return Traces;
}

} // namespace

TEST(ValueTokenIdsTest, PrimitiveIdsMatchVocabularyLookup) {
  std::vector<Value> Values = edgePrimitives();
  Vocabulary Full = vocabularyOf(Values);
  Vocabulary SpecialsOnly;
  SpecialsOnly.freeze();
  for (const Vocabulary *Vocab : {&Full, &SpecialsOnly}) {
    ValueTokenIds Ids(*Vocab);
    for (const Value &V : Values)
      EXPECT_EQ(Ids.id(V), Vocab->lookup(valueToken(V))) << V.str();
    // A short string no vocabulary holds reads <unk>, as lookup does.
    Value Unseen = Value::makeString("zq");
    EXPECT_EQ(Ids.id(Unseen), Vocabulary::Unk);
    EXPECT_EQ(Ids.id(Unseen), Vocab->lookup(valueToken(Unseen)));
  }
  // The full vocabulary tells the bucket edges apart.
  ValueTokenIds Ids(Full);
  EXPECT_NE(Ids.id(Value::makeInt(64)), Ids.id(Value::makeInt(65)));
  EXPECT_NE(Ids.id(Value::makeInt(256)), Ids.id(Value::makeInt(257)));
  EXPECT_NE(Ids.id(Value::makeInt(-65)), Ids.id(Value::makeInt(65)));
  EXPECT_NE(Ids.id(Value::makeString(std::string(8, 'a'))),
            Ids.id(Value::makeString(std::string(9, 'a'))));
}

TEST(ValueTokenIdsTest, ObjectLeafIdsMatchTruncatedValueTokens) {
  StructDecl Point;
  Point.Name = "Point";
  Point.Fields.resize(2);
  Point.Fields[0].Name = "x";
  Point.Fields[1].Name = "ys";
  std::vector<int64_t> Long;
  for (int64_t I = 0; I < 30; ++I)
    Long.push_back(I * 7 - 40);
  std::vector<Value> NestedLong;
  for (int64_t I = 0; I < 10; ++I)
    NestedLong.push_back(intArray({I, -I, 1000 * I}));

  std::vector<Value> Objects = {
      Value::makeArray({Value::makeInt(1), intArray({2, 300}),
                        intArray({}), Value::makeString("ab"),
                        Value::makeBool(true), Value::undef()}),
      intArray({}),
      Value::makeArray({intArray({}), intArray({})}),
      Value::makeStruct(&Point, {Value::makeInt(5), intArray({6, 70000})}),
      Value::makeStruct(&Point, {intArray({}), intArray({})}),
      intArray(Long),
      Value::makeArray(NestedLong),
      intArray({5}),
  };
  Vocabulary Vocab = vocabularyOf(Objects);
  ValueTokenIds Ids(Vocab);
  std::vector<int> Got;
  size_t Cut = 0;
  for (const Value &V : Objects) {
    std::vector<std::string> Tokens = valueTokens(V);
    if (Tokens.size() > MaxFlattenedValues) {
      Tokens.resize(MaxFlattenedValues);
      ++Cut;
    }
    std::vector<int> Want;
    for (const std::string &Token : Tokens)
      Want.push_back(Vocab.lookup(Token));
    Ids.objectIds(V, Got);
    EXPECT_EQ(Got, Want) << V.str();
  }
  // The flat and the nested 30-leaf values are cut.
  EXPECT_EQ(Cut, 2u);
}

TEST(InferenceStoreTest, PrimitiveAndOneElementArrayEmbedApart) {
  // 5 and [5] read the same token; only the kind tag keeps the object
  // (f1 over its leaves) apart from the primitive (the token's row).
  // "5" is the first token after the four specials, and the four
  // padding objects take object entries 0-3, so [5]'s entry number
  // equals 5's token id: an untagged component would collide.
  Vocabulary Joint;
  ASSERT_EQ(Joint.add("5"), 4);
  Joint.add("<empty>");
  Joint.freeze();
  Vocabulary Target;
  Target.add("five");
  LigerConfig Config;
  Config.EmbedDim = 6;
  Config.Hidden = 7;
  Config.AttnHidden = 5;
  Config.UseStaticFeature = false;
  std::vector<MethodTraces> States;
  States.push_back(singleStateTraces({{Value::makeInt(5)}}));
  for (size_t Len = 1; Len <= 4; ++Len)
    States.push_back(
        singleStateTraces({{intArray(std::vector<int64_t>(Len, 1))}}));
  States.push_back(singleStateTraces({{intArray({5})}}));

  LigerNamePredictor Net(Joint, Target, Config, /*Seed=*/3);
  WeightImage Image = WeightImage::fromStore(Net.params());
  LigerInference Inference(Image, Joint, &Target, Config);
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  std::vector<std::vector<float>> Embeddings;
  for (const MethodTraces &Traces : States) {
    GraphArena::current().reset();
    GraphEncoding Enc = Net.encoder().encode(Traces);
    const float *E = Inference.encode(Traces);
    ASSERT_EQ(std::memcmp(E, Enc.ProgramEmbedding->Value.data(),
                          Config.Hidden * sizeof(float)),
              0)
        << "state " << Embeddings.size();
    Embeddings.emplace_back(E, E + Config.Hidden);
  }
  EXPECT_NE(Embeddings.front(), Embeddings.back());
  EXPECT_EQ(Inference.cacheStats().StateMisses, States.size());
}

TEST(InferenceStoreTest, RebindKeepsStoreOnSameDigestResetsOnNew) {
  ExperimentScale Scale = tinyScale();
  NameTask Task = buildNameTask(Scale, /*Large=*/false);
  LigerConfig Config = serveLigerConfig(Scale);
  LigerNamePredictor Net(Task.Joint, Task.Target, Config, Scale.Seed);
  LigerNamePredictor Other(Task.Joint, Task.Target, Config, Scale.Seed + 1);
  WeightImage Image = WeightImage::fromStore(Net.params());
  WeightImage SameImage = WeightImage::fromStore(Net.params());
  WeightImage OtherImage = WeightImage::fromStore(Other.params());
  ASSERT_TRUE(SameImage.version() == Image.version());
  ASSERT_FALSE(OtherImage.version() == Image.version());

  std::vector<const MethodSample *> Samples = allSamples(Task);
  ASSERT_FALSE(Samples.empty());
  LigerInference Inference(Image, Task.Joint, &Task.Target, Config);
  for (const MethodSample *S : Samples)
    Inference.predictName(S->Traces);

  // Same digest: the store stays warm, so a second pass misses nothing.
  Inference.rebind(SameImage);
  LigerInference::CacheStats Warm = Inference.cacheStats();
  for (const MethodSample *S : Samples)
    Inference.predictName(S->Traces);
  EXPECT_EQ(Inference.cacheStats().StmtMisses, Warm.StmtMisses);
  EXPECT_EQ(Inference.cacheStats().StateMisses, Warm.StateMisses);
  EXPECT_GT(Inference.cacheStats().StateHits, Warm.StateHits);

  // New digest: the store is dropped and every output is bitwise what
  // a fresh engine on the new image computes.
  Inference.rebind(OtherImage);
  EXPECT_TRUE(Inference.paramVersion() == OtherImage.version());
  LigerInference::CacheStats BeforeNew = Inference.cacheStats();
  LigerInference Fresh(OtherImage, Task.Joint, &Task.Target, Config);
  for (const MethodSample *S : Samples) {
    std::vector<float> Got;
    const float *E = Inference.encode(S->Traces);
    Got.assign(E, E + Config.Hidden);
    const float *Want = Fresh.encode(S->Traces);
    EXPECT_EQ(std::memcmp(Got.data(), Want, Config.Hidden * sizeof(float)),
              0);
    EXPECT_EQ(Inference.predictName(S->Traces), Fresh.predictName(S->Traces));
  }
  EXPECT_GT(Inference.cacheStats().StateMisses, BeforeNew.StateMisses);
  EXPECT_GT(Inference.cacheStats().StmtMisses, BeforeNew.StmtMisses);
}

//===----------------------------------------------------------------------===//
// WeightImageTest
//===----------------------------------------------------------------------===//

namespace {

/// Entry-by-entry bitwise comparison of \p Got against \p Want.
void expectImagesBitwise(const WeightImage &Want, const WeightImage &Got) {
  ASSERT_EQ(Got.entries().size(), Want.entries().size());
  ASSERT_EQ(Got.totalScalars(), Want.totalScalars());
  EXPECT_TRUE(Got.version() == Want.version());
  for (const WeightImage::Entry &E : Want.entries()) {
    const WeightImage::Entry *L = Got.find(E.Name);
    ASSERT_NE(L, nullptr) << E.Name;
    ASSERT_EQ(L->Rank, E.Rank);
    ASSERT_EQ(L->Dims[0], E.Dims[0]);
    ASSERT_EQ(L->Dims[1], E.Dims[1]);
    const float *A = E.Rank == 2
                         ? Want.tensor2d(E.Name, E.Dims[0], E.Dims[1])
                         : Want.tensor1d(E.Name, E.Size);
    const float *B = L->Rank == 2
                         ? Got.tensor2d(E.Name, E.Dims[0], E.Dims[1])
                         : Got.tensor1d(E.Name, E.Size);
    EXPECT_EQ(std::memcmp(A, B, E.Size * sizeof(float)), 0) << E.Name;
  }
}

} // namespace

TEST(WeightImageTest, RoundTripIsBitwise) {
  WeightImage Image = tinyImage(3);
  std::string Path = tempPath("liger-wi-roundtrip.lgwi");
  std::string Error;
  ASSERT_TRUE(Image.save(Path, &Error)) << Error;

  WeightImage Loaded;
  ASSERT_TRUE(WeightImage::load(Path, Loaded, &Error)) << Error;
  EXPECT_FALSE(Loaded.mapped());
  expectImagesBitwise(Image, Loaded);
  std::remove(Path.c_str());
}

TEST(WeightImageTest, MapRoundTripIsBitwise) {
  WeightImage Image = tinyImage(3);
  std::string Path = tempPath("liger-wi-maptrip.lgwi");
  std::string Error;
  ASSERT_TRUE(Image.save(Path, &Error)) << Error;

  WeightImage Mapped;
  ASSERT_TRUE(WeightImage::map(Path, Mapped, &Error)) << Error;
  EXPECT_TRUE(Mapped.mapped());
  expectImagesBitwise(Image, Mapped);
  // The v2 payload alignment is what makes mapped tensor reads
  // naturally aligned — check it on the actual mapped addresses.
  for (const WeightImage::Entry &E : Mapped.entries()) {
    const float *P = E.Rank == 2
                         ? Mapped.tensor2d(E.Name, E.Dims[0], E.Dims[1])
                         : Mapped.tensor1d(E.Name, E.Size);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % alignof(float), 0u) << E.Name;
  }

  // Copies share the mapping; reads stay valid after the original
  // image is gone and after the file is unlinked (POSIX keeps mapped
  // pages alive until the last munmap).
  WeightImage Copy = Mapped;
  Mapped = WeightImage();
  std::remove(Path.c_str());
  expectImagesBitwise(Image, Copy);
}

TEST(WeightImageTest, MapFallsBackToReadOnMissingMmapTarget) {
  // open() failing is the first rung of the fallback ladder: map()
  // must degrade to load()'s answer (here: a clean failure), never
  // crash or half-fill the output.
  WeightImage Out;
  std::string Error;
  EXPECT_FALSE(WeightImage::map(tempPath("liger-wi-absent.lgwi"), Out,
                                &Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_TRUE(Out.empty());
}

TEST(WeightImageTest, TruncationAtEveryOffsetFailsCleanly) {
  WeightImage Image = tinyImage(5);
  std::string Path = tempPath("liger-wi-trunc.lgwi");
  ASSERT_TRUE(Image.save(Path, nullptr));
  std::string Bytes = readFileBytes(Path);
  ASSERT_GT(Bytes.size(), 64u);

  std::string TruncPath = tempPath("liger-wi-trunc-cut.lgwi");
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    writeFileBytes(TruncPath, Bytes.substr(0, Len));
    WeightImage Out;
    EXPECT_FALSE(WeightImage::load(TruncPath, Out, nullptr))
        << "truncation to " << Len << " bytes must fail";
    WeightImage MapOut;
    EXPECT_FALSE(WeightImage::map(TruncPath, MapOut, nullptr))
        << "mapped truncation to " << Len << " bytes must fail";
  }
  std::remove(Path.c_str());
  std::remove(TruncPath.c_str());
}

TEST(WeightImageTest, EveryByteFlipRejected) {
  WeightImage Image = tinyImage(7);
  std::string Path = tempPath("liger-wi-flip.lgwi");
  ASSERT_TRUE(Image.save(Path, nullptr));
  std::string Bytes = readFileBytes(Path);

  std::string FlipPath = tempPath("liger-wi-flip-mut.lgwi");
  for (size_t I = 0; I < Bytes.size(); ++I) {
    std::string Mutated = Bytes;
    Mutated[I] = static_cast<char>(Mutated[I] ^ 0x5A);
    writeFileBytes(FlipPath, Mutated);
    WeightImage Out;
    // The content digest covers the header, the directory, and every
    // data byte, and the alignment pad must be zero, so no single-byte
    // flip may load successfully — through either backing.
    EXPECT_FALSE(WeightImage::load(FlipPath, Out, nullptr))
        << "flip at offset " << I << " must be rejected";
    WeightImage MapOut;
    EXPECT_FALSE(WeightImage::map(FlipPath, MapOut, nullptr))
        << "mapped flip at offset " << I << " must be rejected";
  }
  std::remove(Path.c_str());
  std::remove(FlipPath.c_str());
}

TEST(WeightImageTest, VersionChangesWithParams) {
  WeightImage A = tinyImage(3);
  WeightImage B = tinyImage(4);
  EXPECT_FALSE(A.version() == B.version());
}

//===----------------------------------------------------------------------===//
// Serve status + deadline
//===----------------------------------------------------------------------===//

namespace {

ServeConfig tinyServeConfig() {
  ServeConfig Config;
  Config.Scale = tinyScale();
  Config.Scale.CacheMode = TraceCacheMode::Full;
  Config.Scale.Cache = std::make_shared<TraceCache>(
      Config.Scale.CacheMode, /*Dir=*/std::string());
  Config.Workers = 2;
  return Config;
}

const char *SpinSource = "int spinner(int x) {\n"
                         "  int spin3 = 0;\n"
                         "  while (spin3 == 0) { spin3 = spin3 * 1; }\n"
                         "  return spin3;\n"
                         "}\n";
/// A loop whose state never repeats: every run interprets its whole
/// fuel budget.
// Chained symbolic-index writes (as in fuzz-corpus/symx_index_blowup.mini):
// the symbolic phase re-executes the method until SymxOptions::MaxRuns,
// about a hundred milliseconds in an optimized build.
const char *ChainSource = "int chain(int a1, int a2, int a3, int a4, int a5,"
                          " int a6) {\n"
                          "  int[] a = new int[8];\n"
                          "  a[a1] = 1;\n"
                          "  a[a2] = 2;\n"
                          "  a[a3] = 3;\n"
                          "  a[a4] = 4;\n"
                          "  a[a5] = 5;\n"
                          "  a[a6] = 6;\n"
                          "  return a[0];\n"
                          "}\n";
const char *SumSource = "int sumAll(int[] xs) {\n"
                        "  int s = 0;\n"
                        "  for (int i = 0; i < len(xs); i = i + 1) {\n"
                        "    s = s + xs[i];\n"
                        "  }\n"
                        "  return s;\n"
                        "}\n";

} // namespace

TEST(ServeStatusTest, PipelineFiltersMapToStatuses) {
  ServeEngine Engine(tinyServeConfig());
  std::vector<ServeResponse> Out = Engine.handleBatch({
      {"sumAll", SumSource, 0},
      {"sumAll", "int sumAll(", 0},
      {"other", SumSource, 0},
      {"tiny", "int tiny(int x) { return x; }", 0},
      {"spinner", SpinSource, 60000},
  });
  ASSERT_EQ(Out.size(), 5u);
  EXPECT_EQ(Out[0].Status, ServeStatus::Ok);
  EXPECT_FALSE(Out[0].NameSubtokens.empty());
  EXPECT_EQ(Out[1].Status, ServeStatus::ParseError);
  EXPECT_EQ(Out[2].Status, ServeStatus::NoSuchMethod);
  EXPECT_EQ(Out[3].Status, ServeStatus::TooSmall);
  // With an effectively unlimited deadline every run of the spin ends
  // OutOfFuel (its repeated state is skipped to the end of the budget):
  // the timeout filter, not the deadline.
  EXPECT_EQ(Out[4].Status, ServeStatus::NoTraces);

  ServeStats Stats = Engine.stats();
  EXPECT_EQ(Stats.Requests, 5u);
  EXPECT_EQ(Stats.Ok, 1u);
  EXPECT_EQ(Stats.ParseErrors, 1u);
  EXPECT_EQ(Stats.NoSuchMethod, 1u);
  EXPECT_EQ(Stats.TooSmall, 1u);
  EXPECT_EQ(Stats.NoTraces, 1u);
  EXPECT_EQ(Stats.DeadlineExceeded, 0u);
}

TEST(InferenceStoreTest, ServedRequestsMatchFreshEngines) {
  // One engine serves distinct methods back to back, twice, so its
  // store holds other methods' statements, objects and trie prefixes,
  // and every request re-parses (Stmt addresses get reused): each
  // embedding and name must still be bitwise what a fresh inference
  // engine's encode() and predictName() return.
  ServeConfig Config = tinyServeConfig();
  Config.Workers = 0;
  Config.ReturnEmbedding = true;
  std::vector<ServeRequest> Requests;
  for (const TaskSpec &Task : taskLibrary()) {
    if (Requests.size() == 8)
      break;
    std::string Name = "served" + std::to_string(Requests.size());
    Requests.push_back(
        {Name, replaceIdentifier(Task.Variants.front().Source, "FN", Name),
         60000});
  }
  // Back to back first, so re-parsed statements can land where an
  // earlier request's statements were. A second engine serves the same
  // requests without embeddings.
  ServeEngine Warm(Config);
  ServeConfig NamesOnlyConfig = tinyServeConfig();
  NamesOnlyConfig.Workers = 0;
  ServeEngine NamesOnly(NamesOnlyConfig);
  std::vector<ServeResponse> Got, GotNames;
  for (int Pass = 0; Pass < 2; ++Pass)
    for (const ServeRequest &Req : Requests) {
      Got.push_back(Warm.handle(Req));
      GotNames.push_back(NamesOnly.handle(Req));
    }
  const size_t H = Warm.modelConfig().Hidden;
  for (size_t I = 0; I < Got.size(); ++I) {
    const ServeRequest &Req = Requests[I % Requests.size()];
    ASSERT_EQ(Got[I].Status, ServeStatus::Ok) << Req.MethodName;
    ASSERT_EQ(GotNames[I].Status, ServeStatus::Ok) << Req.MethodName;
    // The traces ServeEngine collects: its options and its per-request
    // seed, a hash of (source, method, corpus seed).
    DiagnosticSink Diags;
    std::optional<Program> Parsed = parseAndCheck(Req.Source, Diags);
    ASSERT_TRUE(Parsed) << Diags.str();
    const FunctionDecl *Fn = Parsed->findFunction(Req.MethodName);
    ASSERT_NE(Fn, nullptr);
    TestGenOptions Gen = Config.Scale.traceGenOptions();
    StableHash Seed;
    Seed.addString(Req.Source);
    Seed.addString(Req.MethodName);
    Seed.addU64(Config.Scale.Seed);
    Gen.Seed = Seed.digest();
    MethodTraces Traces = collectTraces(*Parsed, *Fn, Gen);
    LigerInference Fresh(Warm.weightImage(), Warm.jointVocab(),
                         &Warm.targetVocab(), Warm.modelConfig());
    ASSERT_EQ(Got[I].Embedding.size(), H);
    EXPECT_EQ(std::memcmp(Got[I].Embedding.data(), Fresh.encode(Traces),
                          H * sizeof(float)),
              0)
        << Req.MethodName << " request " << I;
    std::vector<std::string> Want = Fresh.predictName(Traces);
    EXPECT_EQ(Got[I].NameSubtokens, Want) << Req.MethodName;
    EXPECT_EQ(GotNames[I].NameSubtokens, Want) << Req.MethodName;
    EXPECT_TRUE(GotNames[I].Embedding.empty());
  }
  // Returning the embedding encodes once: the store sees exactly the
  // lookups of the names-only engine.
  LigerInference::CacheStats With = Warm.stats().Embeddings;
  LigerInference::CacheStats Without = NamesOnly.stats().Embeddings;
  EXPECT_GT(Without.StmtMisses, 0u);
  EXPECT_EQ(With.StmtHits, Without.StmtHits);
  EXPECT_EQ(With.StmtMisses, Without.StmtMisses);
  EXPECT_EQ(With.StateHits, Without.StateHits);
  EXPECT_EQ(With.StateMisses, Without.StateMisses);
}

TEST(ServeStatsConcurrencyTest, StatsDuringHandleSeesWholeRequests) {
  // stats() runs while two threads are inside handle(): it must read
  // only what handle() published under the stats mutex, never a leased
  // engine's counters mid-request (a data race a TSan build reports).
  ServeEngine Engine(tinyServeConfig());
  constexpr size_t PerThread = 12;
  std::atomic<size_t> Running{2};
  std::vector<std::thread> Clients;
  for (int T = 0; T < 2; ++T)
    Clients.emplace_back([&] {
      for (size_t I = 0; I < PerThread; ++I)
        EXPECT_EQ(Engine.handle({"sumAll", SumSource, 0}).Status,
                  ServeStatus::Ok);
      Running.fetch_sub(1);
    });
  uint64_t Last = 0;
  while (Running.load() != 0) {
    ServeStats S = Engine.stats();
    EXPECT_GE(S.Requests, Last);
    Last = S.Requests;
    // Counters of a finished request arrive together with it.
    EXPECT_EQ(S.Ok, S.Requests);
  }
  for (std::thread &T : Clients)
    T.join();

  ServeStats S = Engine.stats();
  EXPECT_EQ(S.Requests, 2 * PerThread);
  EXPECT_EQ(S.Ok, 2 * PerThread);
  // One engine per worker: each computes a statement once, then reuses it.
  EXPECT_GT(S.Embeddings.StmtHits, 0u);
  EXPECT_GT(S.Embeddings.StmtMisses, 0u);
  EXPECT_GT(S.Embeddings.StateHits + S.Embeddings.StateMisses, 0u);
}

TEST(ServeDeadlineTest, TinyDeadlineSurfacesAsDistinctStatus) {
  ServeEngine Engine(tinyServeConfig());
  // A 1ms deadline on an uncached method whose symbolic phase alone
  // takes about a hundred times longer: the phase-boundary check then
  // reports the deadline, which dominates the trace-outcome filters.
  std::vector<ServeResponse> Out =
      Engine.handleBatch({{"chain", ChainSource, 1}});
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Status, ServeStatus::DeadlineExceeded);
  EXPECT_TRUE(Out[0].NameSubtokens.empty());
  EXPECT_NE(Out[0].Diagnostic.find("deadline"), std::string::npos);
  EXPECT_EQ(Engine.stats().DeadlineExceeded, 1u);
}

//===----------------------------------------------------------------------===//
// Shared-directory concurrency
//===----------------------------------------------------------------------===//

TEST(ServeSharedCacheTest, TwoEnginesShareOneDirectory) {
  std::string Dir = tempPath("liger-serve-shared-cache");
  std::filesystem::remove_all(Dir);

  auto makeConfig = [&] {
    ServeConfig Config = tinyServeConfig();
    // Each engine gets its own TraceCache instance (fresh memory map,
    // as in separate processes) over the same directory.
    Config.Scale.TraceCacheDir = Dir;
    Config.Scale.Cache = std::make_shared<TraceCache>(
        Config.Scale.CacheMode, Config.Scale.TraceCacheDir);
    return Config;
  };

  std::vector<ServeRequest> Burst = {{"sumAll", SumSource, 0},
                                     {"sumAll", SumSource, 0}};

  // Cold pass one request at a time (a batched pair may race to the
  // same key on two workers and both legitimately miss): the second
  // identical request must deterministically reuse the first's entry.
  ServeEngine First(makeConfig());
  std::vector<ServeResponse> Cold = {First.handle(Burst[0]),
                                     First.handle(Burst[1])};
  ASSERT_EQ(Cold[0].Status, ServeStatus::Ok);
  ASSERT_EQ(Cold[1].Status, ServeStatus::Ok);
  EXPECT_FALSE(Cold[0].TraceCacheHit);
  EXPECT_TRUE(Cold[1].TraceCacheHit)
      << "second identical request must reuse the first's entry";

  // A second engine with no memory of the first: all disk hits, same
  // predictions, concurrently from both engines' worker pools.
  ServeEngine Second(makeConfig());
  std::vector<ServeResponse> FromFirst, FromSecond;
  std::thread Reader([&] { FromFirst = First.handleBatch(Burst); });
  FromSecond = Second.handleBatch(Burst);
  Reader.join();

  for (const ServeResponse &R : FromSecond) {
    EXPECT_EQ(R.Status, ServeStatus::Ok);
    EXPECT_TRUE(R.TraceCacheHit);
    EXPECT_EQ(R.NameSubtokens, Cold[0].NameSubtokens);
  }
  for (const ServeResponse &R : FromFirst) {
    EXPECT_EQ(R.Status, ServeStatus::Ok);
    EXPECT_TRUE(R.TraceCacheHit);
    EXPECT_EQ(R.NameSubtokens, Cold[0].NameSubtokens);
  }
  std::filesystem::remove_all(Dir);
}

TEST(ServeSharedCacheTest, ResidentBytesMatchWrittenEntries) {
  // Every entry in a directory-backed cache's memory went through one
  // buffer that was also written to its file, so the cache's resident
  // bytes are exactly the directory's LGTR bytes, and stats() says so.
  std::string Dir = tempPath("liger-serve-resident-bytes");
  std::filesystem::remove_all(Dir);
  ServeConfig Config = tinyServeConfig();
  Config.Scale.TraceCacheDir = Dir;
  Config.Scale.Cache = std::make_shared<TraceCache>(
      Config.Scale.CacheMode, Config.Scale.TraceCacheDir);
  TraceCache &Cache = *Config.Scale.Cache;

  ServeEngine Engine(Config);
  std::vector<ServeResponse> Out = Engine.handleBatch(
      {{"sumAll", SumSource, 0}, {"spinner", SpinSource, 60000}});
  ASSERT_EQ(Out[0].Status, ServeStatus::Ok);
  ASSERT_EQ(Engine.handle({"sumAll", SumSource, 0}).Status, ServeStatus::Ok);

  uint64_t FileBytes = 0;
  size_t Files = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    if (E.path().extension() == ".lgtr") {
      FileBytes += E.file_size();
      ++Files;
    }
  EXPECT_GT(Files, 0u);
  EXPECT_EQ(Cache.residentBytes(), FileBytes);
  EXPECT_EQ(Cache.entries(), Files);
  ServeStats S = Engine.stats();
  EXPECT_EQ(S.TraceCacheBytes, FileBytes);
  EXPECT_EQ(S.TraceCacheEntries, Files);

  // No cache, nothing held.
  ServeConfig Bare = tinyServeConfig();
  Bare.Scale.CacheMode = TraceCacheMode::Off;
  Bare.Scale.Cache = nullptr;
  ServeEngine Uncached(Bare);
  EXPECT_EQ(Uncached.handle({"sumAll", SumSource, 0}).Status,
            ServeStatus::Ok);
  EXPECT_EQ(Uncached.stats().TraceCacheEntries, 0u);
  EXPECT_EQ(Uncached.stats().TraceCacheBytes, 0u);
  std::filesystem::remove_all(Dir);
}

TEST(TraceCacheConcurrencyTest, SharedDirReadersAndWritersStayClean) {
  std::string Dir = tempPath("liger-trace-cache-concurrent");
  std::filesystem::remove_all(Dir);

  // Synthetic entries, one per key; every thread stores and looks up
  // every key through its own cache instance (simulating processes
  // that share only the directory). Stores atomically replace files
  // while other threads are mid-read; the reader must treat any
  // interleaving as a whole old or whole new entry, never corruption.
  constexpr size_t NumKeys = 8;
  constexpr size_t NumThreads = 4;
  constexpr size_t Rounds = 25;
  auto keyOf = [](size_t I) {
    TestGenOptions Options;
    Options.Seed = 1000 + I;
    return traceCacheKey("shared-source", "method" + std::to_string(I),
                         Options);
  };
  std::vector<std::string> Entries;
  for (size_t I = 0; I < NumKeys; ++I) {
    CollectStats Stats;
    Stats.Attempts = static_cast<unsigned>(10 + I);
    Stats.OkRuns = static_cast<unsigned>(I);
    MethodTraces Traces;
    Traces.VarNames = {"v" + std::to_string(I)};
    Entries.push_back(serializeCacheEntry(keyOf(I), Stats, Traces));
  }

  std::vector<std::unique_ptr<TraceCache>> Caches;
  for (size_t T = 0; T < NumThreads; ++T)
    Caches.push_back(
        std::make_unique<TraceCache>(TraceCacheMode::Full, Dir));

  std::atomic<uint64_t> WrongPayloads{0};
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (size_t R = 0; R < Rounds; ++R)
        for (size_t I = 0; I < NumKeys; ++I) {
          if ((R + T + I) % 2 == 0)
            Caches[T]->store(keyOf(I), Entries[I]);
          if (std::shared_ptr<const std::string> Out =
                  Caches[T]->lookup(keyOf(I)))
            if (*Out != Entries[I])
              WrongPayloads.fetch_add(1);
        }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(WrongPayloads.load(), 0u);
  for (const std::unique_ptr<TraceCache> &C : Caches)
    EXPECT_EQ(C->badEntries(), 0u)
        << "atomic replace + handle-sized reads must never look corrupt";

  // A fresh instance over the settled directory hits every key.
  TraceCache Fresh(TraceCacheMode::Full, Dir);
  for (size_t I = 0; I < NumKeys; ++I) {
    std::shared_ptr<const std::string> Out = Fresh.lookup(keyOf(I));
    ASSERT_TRUE(Out) << "key " << I;
    EXPECT_EQ(*Out, Entries[I]) << "key " << I;
  }
  std::filesystem::remove_all(Dir);
}
