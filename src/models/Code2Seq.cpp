//===-- models/Code2Seq.cpp - code2seq static baseline ---------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "models/Code2Seq.h"

#include "models/Inference.h"
#include "support/StringUtils.h"

using namespace liger;

namespace {

std::vector<std::string> leafSubtokens(const std::string &Leaf) {
  std::vector<std::string> Subs = splitSubtokens(Leaf);
  if (Subs.empty())
    Subs.push_back(Leaf); // punctuation-ish leaves keep their spelling
  return Subs;
}

/// code2seq's salt for sampleAstPaths, distinct from code2vec's 0.
constexpr uint64_t PathSalt = 0xC2;

} // namespace

std::vector<SeqPathContext>
liger::extractSeqPathContexts(const MethodSample &Sample,
                              const Vocabulary &SubtokenVocab,
                              const Vocabulary &NodeVocab) {
  std::vector<SeqPathContext> Out;
  for (const AstPath &Path : sampleAstPaths(Sample, PathSalt)) {
    SeqPathContext Context;
    for (const std::string &Sub : leafSubtokens(Path.SourceLeaf))
      Context.SourceSubtokens.push_back(SubtokenVocab.lookup(Sub));
    for (const std::string &Node : Path.InteriorLabels)
      Context.PathNodes.push_back(NodeVocab.lookup(Node));
    for (const std::string &Sub : leafSubtokens(Path.TargetLeaf))
      Context.TargetSubtokens.push_back(SubtokenVocab.lookup(Sub));
    Out.push_back(std::move(Context));
  }
  return Out;
}

Code2SeqVocabularies
liger::buildCode2SeqVocabularies(const std::vector<MethodSample> &Train) {
  Code2SeqVocabularies V;
  for (const MethodSample &Sample : Train)
    for (const AstPath &Path : sampleAstPaths(Sample, PathSalt)) {
      for (const std::string &Sub : leafSubtokens(Path.SourceLeaf))
        V.Subtokens.add(Sub);
      for (const std::string &Sub : leafSubtokens(Path.TargetLeaf))
        V.Subtokens.add(Sub);
      for (const std::string &Node : Path.InteriorLabels)
        V.Nodes.add(Node);
    }
  V.Subtokens.freeze();
  V.Nodes.freeze();
  return V;
}

//===----------------------------------------------------------------------===//
// Code2SeqEncoder
//===----------------------------------------------------------------------===//

namespace {

Var sumSubtokenEmbeds(const std::vector<int> &Ids,
                      const EmbeddingTable &Table, size_t Dim) {
  if (Ids.empty())
    return constant(Tensor::zeros(Dim));
  Var Sum = Table.lookup(Ids[0]);
  for (size_t I = 1; I < Ids.size(); ++I)
    Sum = add(Sum, Table.lookup(Ids[I]));
  return Sum;
}

} // namespace

Code2SeqEncoder::Code2SeqEncoder(ParamStore &Store,
                                 const Vocabulary &Subtokens,
                                 const Vocabulary &Nodes,
                                 const Code2SeqConfig &Cfg, Rng &R)
    : Config(Cfg), SubtokenVocab(Subtokens), NodeVocab(Nodes),
      SubtokenEmbed(Store, "c2s.sub", Subtokens.size(), Cfg.EmbedDim, R),
      NodeEmbed(Store, "c2s.node", Nodes.size(), Cfg.EmbedDim, R),
      PathRnn(Store, "c2s.path", Cfg.EmbedDim, Cfg.Hidden, R),
      ContextProj(Store, "c2s.ctx", 2 * Cfg.EmbedDim + Cfg.Hidden,
                  Cfg.Hidden, R) {}

Var Code2SeqEncoder::embedContext(const SeqPathContext &Context) const {
  Var L = sumSubtokenEmbeds(Context.SourceSubtokens, SubtokenEmbed,
                            Config.EmbedDim);
  Var R = sumSubtokenEmbeds(Context.TargetSubtokens, SubtokenEmbed,
                            Config.EmbedDim);
  Var PathH;
  if (Context.PathNodes.empty()) {
    PathH = constant(Tensor::zeros(Config.Hidden));
  } else {
    std::vector<Var> Inputs;
    for (int Id : Context.PathNodes)
      Inputs.push_back(NodeEmbed.lookup(Id));
    PathH = PathRnn.run(Inputs).back();
  }
  return tanhV(ContextProj.apply(concat(concat(L, PathH), R)));
}

GraphEncoding Code2SeqEncoder::encode(const MethodSample &Sample) const {
  std::vector<SeqPathContext> Contexts =
      extractSeqPathContexts(Sample, SubtokenVocab, NodeVocab);
  GraphEncoding Out;
  if (Contexts.empty()) {
    Out.ProgramEmbedding = constant(Tensor::zeros(Config.Hidden));
    Out.Memory.push_back(Out.ProgramEmbedding);
    return Out;
  }
  for (const SeqPathContext &Context : Contexts)
    Out.Memory.push_back(embedContext(Context));
  Out.ProgramEmbedding = meanPool(Out.Memory);
  return Out;
}

//===----------------------------------------------------------------------===//
// Heads
//===----------------------------------------------------------------------===//

Code2SeqNamePredictor::Code2SeqNamePredictor(const Vocabulary &Subtokens,
                                             const Vocabulary &Nodes,
                                             const Vocabulary &Target,
                                             const Code2SeqConfig &Config,
                                             uint64_t Seed)
    : InitRng(Seed), Encoder(Store, Subtokens, Nodes, Config, InitRng),
      Decoder(Store, "c2s.dec", SeqDecoderConfig::forModel(Config, Target),
              InitRng),
      TargetVocab(Target) {}

Var Code2SeqNamePredictor::loss(const MethodSample &Sample) const {
  return Decoder.lossBatch(
      {Encoder.encode(Sample)},
      {nameTargetIds(Sample.NameSubtokens, TargetVocab)})[0];
}

std::vector<std::vector<std::string>>
Code2SeqNamePredictor::predict(const std::vector<MethodSample> &Samples) const {
  return decodeGraphEncodings(
      Store, Decoder, TargetVocab, Samples,
      [&](const MethodSample &Sample) { return Encoder.encode(Sample); });
}

Code2SeqClassifier::Code2SeqClassifier(const Vocabulary &Subtokens,
                                       const Vocabulary &Nodes,
                                       size_t NumClasses,
                                       const Code2SeqConfig &Config,
                                       uint64_t Seed)
    : InitRng(Seed), Encoder(Store, Subtokens, Nodes, Config, InitRng),
      Head(Store, "c2s.head", Config.Hidden, NumClasses, InitRng) {}

Var Code2SeqClassifier::loss(const MethodSample &Sample) const {
  LIGER_CHECK(Sample.ClassId >= 0, "classification sample without label");
  Var Embedding = Encoder.encode(Sample).ProgramEmbedding;
  return Head.softmaxCrossEntropyBatch(
      Embedding, static_cast<size_t>(Sample.ClassId))[0];
}

int Code2SeqClassifier::predict(const MethodSample &Sample) const {
  return static_cast<int>(
      argmax(Head.apply(Encoder.encode(Sample).ProgramEmbedding)->Value));
}
