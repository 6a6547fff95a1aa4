//===-- models/Code2Seq.cpp - code2seq static baseline ---------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "models/Code2Seq.h"

#include "lang/AstTree.h"
#include "models/Inference.h"
#include "support/StringUtils.h"

using namespace liger;

namespace {

uint64_t nameSeed(const MethodSample &Sample) {
  uint64_t H = 1469598103934665603ULL;
  for (char C : Sample.Fn->Name) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ULL;
  }
  return H ^ 0xC2u; // distinct from code2vec's sampling stream
}

std::vector<AstPath> samplePaths(const MethodSample &Sample,
                                 const Code2SeqConfig &Config) {
  AstTree Tree = buildFunctionTree(*Sample.Fn);
  return extractAstPaths(Tree, Config.MaxContexts, Config.MaxPathLength,
                         Config.MaxPathWidth, nameSeed(Sample));
}

std::vector<std::string> leafSubtokens(const std::string &Leaf) {
  std::vector<std::string> Subs = splitSubtokens(Leaf);
  if (Subs.empty())
    Subs.push_back(Leaf); // punctuation-ish leaves keep their spelling
  return Subs;
}

} // namespace

std::vector<SeqPathContext>
liger::extractSeqPathContexts(const MethodSample &Sample,
                              const Vocabulary &SubtokenVocab,
                              const Vocabulary &NodeVocab,
                              const Code2SeqConfig &Config) {
  std::vector<SeqPathContext> Out;
  for (const AstPath &Path : samplePaths(Sample, Config)) {
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

void liger::addSeqPathContextsToVocabulary(const MethodSample &Sample,
                                           Vocabulary &SubtokenVocab,
                                           Vocabulary &NodeVocab,
                                           const Code2SeqConfig &Config) {
  for (const AstPath &Path : samplePaths(Sample, Config)) {
    for (const std::string &Sub : leafSubtokens(Path.SourceLeaf))
      SubtokenVocab.add(Sub);
    for (const std::string &Sub : leafSubtokens(Path.TargetLeaf))
      SubtokenVocab.add(Sub);
    for (const std::string &Node : Path.InteriorLabels)
      NodeVocab.add(Node);
  }
}

//===----------------------------------------------------------------------===//
// Shared context embedding
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

Var embedContextImpl(const SeqPathContext &Context,
                     const EmbeddingTable &SubtokenEmbed,
                     const EmbeddingTable &NodeEmbed,
                     const RecurrentCell &PathRnn, const Linear &ContextProj,
                     size_t EmbedDim, size_t Hidden) {
  Var L = sumSubtokenEmbeds(Context.SourceSubtokens, SubtokenEmbed,
                            EmbedDim);
  Var R = sumSubtokenEmbeds(Context.TargetSubtokens, SubtokenEmbed,
                            EmbedDim);
  Var PathH;
  if (Context.PathNodes.empty()) {
    PathH = constant(Tensor::zeros(Hidden));
  } else {
    std::vector<Var> Inputs;
    for (int Id : Context.PathNodes)
      Inputs.push_back(NodeEmbed.lookup(Id));
    PathH = PathRnn.run(Inputs).back();
  }
  return tanhV(ContextProj.apply(concat(concat(L, PathH), R)));
}

} // namespace

//===----------------------------------------------------------------------===//
// Code2SeqNamePredictor
//===----------------------------------------------------------------------===//

Code2SeqNamePredictor::Code2SeqNamePredictor(const Vocabulary &Subtokens,
                                             const Vocabulary &Nodes,
                                             const Vocabulary &Target,
                                             const Code2SeqConfig &Cfg,
                                             uint64_t Seed)
    : InitRng(Seed), Config(Cfg), SubtokenVocab(Subtokens), NodeVocab(Nodes),
      TargetVocab(Target),
      SubtokenEmbed(Store, "c2s.sub", Subtokens.size(), Cfg.EmbedDim,
                    InitRng),
      NodeEmbed(Store, "c2s.node", Nodes.size(), Cfg.EmbedDim, InitRng),
      PathRnn(Store, "c2s.path", Cfg.EmbedDim, Cfg.Hidden, InitRng),
      ContextProj(Store, "c2s.ctx", 2 * Cfg.EmbedDim + Cfg.Hidden,
                  Cfg.Hidden, InitRng),
      Decoder(Store, "c2s.dec", SeqDecoderConfig::forModel(Cfg, Target),
              InitRng) {}

Var Code2SeqNamePredictor::embedContext(const SeqPathContext &Context) const {
  return embedContextImpl(Context, SubtokenEmbed, NodeEmbed, PathRnn,
                          ContextProj, Config.EmbedDim, Config.Hidden);
}

GraphEncoding
Code2SeqNamePredictor::encode(const MethodSample &Sample) const {
  std::vector<SeqPathContext> Contexts =
      extractSeqPathContexts(Sample, SubtokenVocab, NodeVocab, Config);
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

Var Code2SeqNamePredictor::loss(const MethodSample &Sample) const {
  GraphEncoding Enc = encode(Sample);
  return Decoder.loss(Enc, nameTargetIds(Sample.NameSubtokens, TargetVocab));
}

std::vector<std::vector<std::string>>
Code2SeqNamePredictor::predict(const std::vector<MethodSample> &Samples) const {
  return decodeGraphEncodings(
      Store, Decoder, Config.MaxDecodeLen, TargetVocab, Samples,
      [&](const MethodSample &Sample) { return encode(Sample); });
}

//===----------------------------------------------------------------------===//
// Code2SeqClassifier
//===----------------------------------------------------------------------===//

Code2SeqClassifier::Code2SeqClassifier(const Vocabulary &Subtokens,
                                       const Vocabulary &Nodes,
                                       size_t NumClasses,
                                       const Code2SeqConfig &Cfg,
                                       uint64_t Seed)
    : InitRng(Seed), Config(Cfg), SubtokenVocab(Subtokens), NodeVocab(Nodes),
      SubtokenEmbed(Store, "c2s.sub", Subtokens.size(), Cfg.EmbedDim,
                    InitRng),
      NodeEmbed(Store, "c2s.node", Nodes.size(), Cfg.EmbedDim, InitRng),
      PathRnn(Store, "c2s.path", Cfg.EmbedDim, Cfg.Hidden, InitRng),
      ContextProj(Store, "c2s.ctx", 2 * Cfg.EmbedDim + Cfg.Hidden,
                  Cfg.Hidden, InitRng),
      Head(Store, "c2s.head", Cfg.Hidden, NumClasses, InitRng) {}

Var Code2SeqClassifier::embedContext(const SeqPathContext &Context) const {
  return embedContextImpl(Context, SubtokenEmbed, NodeEmbed, PathRnn,
                          ContextProj, Config.EmbedDim, Config.Hidden);
}

Var Code2SeqClassifier::codeVector(const MethodSample &Sample) const {
  std::vector<SeqPathContext> Contexts =
      extractSeqPathContexts(Sample, SubtokenVocab, NodeVocab, Config);
  if (Contexts.empty())
    return constant(Tensor::zeros(Config.Hidden));
  std::vector<Var> Vecs;
  for (const SeqPathContext &Context : Contexts)
    Vecs.push_back(embedContext(Context));
  return meanPool(Vecs);
}

Var Code2SeqClassifier::loss(const MethodSample &Sample) const {
  LIGER_CHECK(Sample.ClassId >= 0, "classification sample without label");
  return softmaxCrossEntropy(Head.apply(codeVector(Sample)),
                             static_cast<size_t>(Sample.ClassId));
}

int Code2SeqClassifier::predict(const MethodSample &Sample) const {
  return static_cast<int>(argmax(Head.apply(codeVector(Sample))->Value));
}
