//===-- models/Code2Vec.h - code2vec static baseline ------------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reimplementation of code2vec (Alon et al., POPL 2019): a method body
/// is a bag of AST *path-contexts* (sourceLeaf, path, targetLeaf); each
/// context is embedded as tanh(W [e_l ⊕ e_p ⊕ e_r]); a learned global
/// attention vector weighs contexts into one code vector; prediction is
/// a softmax over *whole method names* (the original model's design —
/// one reason its sub-token F1 trails code2seq, as in the paper's
/// Table 2).
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_MODELS_CODE2VEC_H
#define LIGER_MODELS_CODE2VEC_H

#include "models/Common.h"

namespace liger {

/// code2vec hyper-parameters.
struct Code2VecConfig {
  size_t EmbedDim = 32;
  size_t CodeDim = 32; ///< Context/code vector width.
};

/// One extracted path-context, already mapped to vocabulary ids.
struct PathContextIds {
  int Source = 0;
  int Path = 0;
  int Target = 0;
};

/// Extracts path-contexts from a sample's function body (deterministic
/// per function: sampleAstPaths with salt 0).
std::vector<PathContextIds>
extractPathContexts(const MethodSample &Sample, const Vocabulary &TokenVocab,
                    const Vocabulary &PathVocab);

/// code2vec's vocabularies, frozen.
struct Code2VecVocabularies {
  Vocabulary Tokens; ///< Path-context leaf tokens.
  Vocabulary Paths;  ///< Path interiors.
  Vocabulary Names;  ///< Whole method names (the name predictor's classes).
};

/// Builds code2vec's vocabularies from the training split \p Train.
Code2VecVocabularies
buildCode2VecVocabularies(const std::vector<MethodSample> &Train);

/// code2vec for method name prediction (whole-name classification).
class Code2VecNamePredictor {
public:
  Code2VecNamePredictor(const Vocabulary &TokenVocab,
                        const Vocabulary &PathVocab,
                        const Vocabulary &NameVocab,
                        const Code2VecConfig &Config, uint64_t Seed);

  Var loss(const MethodSample &Sample) const;
  /// Predicts the best whole name and splits it into sub-tokens.
  std::vector<std::string> predict(const MethodSample &Sample) const;
  /// predict() for each of \p Samples, in a graph arena reset per sample.
  std::vector<std::vector<std::string>>
  predict(const std::vector<MethodSample> &Samples) const;

  ParamStore &params() { return Store; }

private:
  Var codeVector(const MethodSample &Sample) const;

  ParamStore Store;
  Rng InitRng;
  Code2VecConfig Config;
  const Vocabulary &TokenVocab;
  const Vocabulary &PathVocab;
  const Vocabulary &NameVocab;
  EmbeddingTable TokenEmbed;
  EmbeddingTable PathEmbed;
  Linear ContextProj;
  Var AttnVector; ///< Global attention vector a.
  Linear OutProj;
};

/// code2vec with a classification head (COSET task).
class Code2VecClassifier {
public:
  Code2VecClassifier(const Vocabulary &TokenVocab,
                     const Vocabulary &PathVocab, size_t NumClasses,
                     const Code2VecConfig &Config, uint64_t Seed);

  Var loss(const MethodSample &Sample) const;
  int predict(const MethodSample &Sample) const;

  ParamStore &params() { return Store; }

private:
  Var codeVector(const MethodSample &Sample) const;

  ParamStore Store;
  Rng InitRng;
  Code2VecConfig Config;
  const Vocabulary &TokenVocab;
  const Vocabulary &PathVocab;
  EmbeddingTable TokenEmbed;
  EmbeddingTable PathEmbed;
  Linear ContextProj;
  Var AttnVector;
  Linear Head;
};

} // namespace liger

#endif // LIGER_MODELS_CODE2VEC_H
