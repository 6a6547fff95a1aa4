//===-- models/Code2Vec.cpp - code2vec static baseline ---------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "models/Code2Vec.h"

#include "support/StringUtils.h"

using namespace liger;

std::vector<PathContextIds>
liger::extractPathContexts(const MethodSample &Sample,
                           const Vocabulary &TokenVocab,
                           const Vocabulary &PathVocab) {
  std::vector<PathContextIds> Out;
  for (const AstPath &Path : sampleAstPaths(Sample, /*Salt=*/0)) {
    PathContextIds Ids;
    Ids.Source = TokenVocab.lookup(Path.SourceLeaf);
    Ids.Path = PathVocab.lookup(Path.interiorKey());
    Ids.Target = TokenVocab.lookup(Path.TargetLeaf);
    Out.push_back(Ids);
  }
  return Out;
}

Code2VecVocabularies
liger::buildCode2VecVocabularies(const std::vector<MethodSample> &Train) {
  Code2VecVocabularies V;
  for (const MethodSample &Sample : Train) {
    for (const AstPath &Path : sampleAstPaths(Sample, /*Salt=*/0)) {
      V.Tokens.add(Path.SourceLeaf);
      V.Tokens.add(Path.TargetLeaf);
      V.Paths.add(Path.interiorKey());
    }
    V.Names.add(Sample.Fn->Name);
  }
  V.Tokens.freeze();
  V.Paths.freeze();
  V.Names.freeze();
  return V;
}

//===----------------------------------------------------------------------===//
// Shared encoder plumbing
//===----------------------------------------------------------------------===//

namespace {

/// Builds the attended code vector from path contexts. Empty context
/// sets yield a zero vector.
Var buildCodeVector(const std::vector<PathContextIds> &Contexts,
                    const EmbeddingTable &TokenEmbed,
                    const EmbeddingTable &PathEmbed,
                    const Linear &ContextProj, const Var &AttnVector,
                    size_t CodeDim) {
  if (Contexts.empty())
    return constant(Tensor::zeros(CodeDim));
  std::vector<Var> ContextVecs;
  std::vector<Var> Scores;
  ContextVecs.reserve(Contexts.size());
  for (const PathContextIds &Ids : Contexts) {
    Var C = tanhV(ContextProj.apply(
        concat(concat(TokenEmbed.lookup(Ids.Source),
                      PathEmbed.lookup(Ids.Path)),
               TokenEmbed.lookup(Ids.Target))));
    ContextVecs.push_back(C);
    Scores.push_back(dot(AttnVector, C));
  }
  Var Weights = softmax(stackScalars(Scores));
  return weightedCombine(ContextVecs, Weights);
}

} // namespace

//===----------------------------------------------------------------------===//
// Code2VecNamePredictor
//===----------------------------------------------------------------------===//

Code2VecNamePredictor::Code2VecNamePredictor(const Vocabulary &Tokens,
                                             const Vocabulary &Paths,
                                             const Vocabulary &Names,
                                             const Code2VecConfig &Cfg,
                                             uint64_t Seed)
    : InitRng(Seed), Config(Cfg), TokenVocab(Tokens), PathVocab(Paths),
      NameVocab(Names),
      TokenEmbed(Store, "c2v.token", Tokens.size(), Cfg.EmbedDim, InitRng),
      PathEmbed(Store, "c2v.path", Paths.size(), Cfg.EmbedDim, InitRng),
      ContextProj(Store, "c2v.ctx", 3 * Cfg.EmbedDim, Cfg.CodeDim, InitRng),
      OutProj(Store, "c2v.out", Cfg.CodeDim, Names.size(), InitRng) {
  AttnVector = Store.addParam(
      "c2v.attn", Tensor::uniform(Cfg.CodeDim, 0.2f, InitRng));
}

Var Code2VecNamePredictor::codeVector(const MethodSample &Sample) const {
  std::vector<PathContextIds> Contexts =
      extractPathContexts(Sample, TokenVocab, PathVocab);
  return buildCodeVector(Contexts, TokenEmbed, PathEmbed, ContextProj,
                         AttnVector, Config.CodeDim);
}

Var Code2VecNamePredictor::loss(const MethodSample &Sample) const {
  int Target = NameVocab.lookup(Sample.Fn->Name);
  return OutProj.softmaxCrossEntropyBatch(
      codeVector(Sample), static_cast<size_t>(Target))[0];
}

std::vector<std::string>
Code2VecNamePredictor::predict(const MethodSample &Sample) const {
  Var Logits = OutProj.apply(codeVector(Sample));
  Tensor Masked = Logits->Value;
  // Never predict the special tokens.
  for (int Special :
       {Vocabulary::Pad, Vocabulary::Unk, Vocabulary::Sos, Vocabulary::Eos})
    Masked[static_cast<size_t>(Special)] = -1e30f;
  size_t Best = argmax(Masked);
  return splitSubtokens(NameVocab.token(static_cast<int>(Best)));
}

std::vector<std::vector<std::string>>
Code2VecNamePredictor::predict(const std::vector<MethodSample> &Samples) const {
  GraphArena Arena;
  GraphArena::Scope Scope(Arena);
  std::vector<std::vector<std::string>> Names;
  for (const MethodSample &Sample : Samples) {
    Names.push_back(predict(Sample));
    Arena.reset();
  }
  return Names;
}

//===----------------------------------------------------------------------===//
// Code2VecClassifier
//===----------------------------------------------------------------------===//

Code2VecClassifier::Code2VecClassifier(const Vocabulary &Tokens,
                                       const Vocabulary &Paths,
                                       size_t NumClasses,
                                       const Code2VecConfig &Cfg,
                                       uint64_t Seed)
    : InitRng(Seed), Config(Cfg), TokenVocab(Tokens), PathVocab(Paths),
      TokenEmbed(Store, "c2v.token", Tokens.size(), Cfg.EmbedDim, InitRng),
      PathEmbed(Store, "c2v.path", Paths.size(), Cfg.EmbedDim, InitRng),
      ContextProj(Store, "c2v.ctx", 3 * Cfg.EmbedDim, Cfg.CodeDim, InitRng),
      Head(Store, "c2v.head", Cfg.CodeDim, NumClasses, InitRng) {
  AttnVector = Store.addParam(
      "c2v.attn", Tensor::uniform(Cfg.CodeDim, 0.2f, InitRng));
}

Var Code2VecClassifier::codeVector(const MethodSample &Sample) const {
  std::vector<PathContextIds> Contexts =
      extractPathContexts(Sample, TokenVocab, PathVocab);
  return buildCodeVector(Contexts, TokenEmbed, PathEmbed, ContextProj,
                         AttnVector, Config.CodeDim);
}

Var Code2VecClassifier::loss(const MethodSample &Sample) const {
  LIGER_CHECK(Sample.ClassId >= 0, "classification sample without label");
  return Head.softmaxCrossEntropyBatch(
      codeVector(Sample), static_cast<size_t>(Sample.ClassId))[0];
}

int Code2VecClassifier::predict(const MethodSample &Sample) const {
  return static_cast<int>(argmax(Head.apply(codeVector(Sample))->Value));
}
