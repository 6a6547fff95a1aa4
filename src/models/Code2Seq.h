//===-- models/Code2Seq.h - code2seq static baseline ------------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reimplementation of code2seq (Alon et al., ICLR 2019): AST
/// path-contexts with (a) terminal tokens decomposed into sub-tokens
/// whose embeddings are summed, and (b) the path's interior node
/// sequence encoded by a recurrent network; a sequence decoder with
/// attention over the context set emits the method name as sub-tokens —
/// which is why code2seq beats code2vec on the sub-token metric
/// (paper's Table 2) while both trail the dynamic models.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_MODELS_CODE2SEQ_H
#define LIGER_MODELS_CODE2SEQ_H

#include "models/Common.h"
#include "models/Decoder.h"

namespace liger {

/// code2seq hyper-parameters.
struct Code2SeqConfig {
  size_t EmbedDim = 32;
  size_t Hidden = 32;
  size_t AttnHidden = 32;
};

/// One path-context in code2seq form: sub-token ids for each terminal
/// plus the interior label id sequence.
struct SeqPathContext {
  std::vector<int> SourceSubtokens;
  std::vector<int> PathNodes;
  std::vector<int> TargetSubtokens;
};

/// Extracts code2seq path-contexts for a sample (sampleAstPaths with
/// salt 0xC2).
std::vector<SeqPathContext>
extractSeqPathContexts(const MethodSample &Sample,
                       const Vocabulary &SubtokenVocab,
                       const Vocabulary &NodeVocab);

/// code2seq's encoder vocabularies, frozen. The name predictor's
/// decoder reads the shared method-name target vocabulary.
struct Code2SeqVocabularies {
  Vocabulary Subtokens; ///< Leaf sub-tokens.
  Vocabulary Nodes;     ///< Path interior labels.
};

/// Builds code2seq's vocabularies from the training split \p Train.
Code2SeqVocabularies
buildCode2SeqVocabularies(const std::vector<MethodSample> &Train);

/// Encoder shared by the name predictor and the classifier.
class Code2SeqEncoder {
public:
  Code2SeqEncoder(ParamStore &Store, const Vocabulary &SubtokenVocab,
                  const Vocabulary &NodeVocab, const Code2SeqConfig &Config,
                  Rng &R);

  /// The memory holds every path-context vector and the program
  /// embedding is their mean; a method without paths encodes as a zero
  /// vector, which is also its memory.
  GraphEncoding encode(const MethodSample &Sample) const;

private:
  Var embedContext(const SeqPathContext &Context) const;

  Code2SeqConfig Config;
  const Vocabulary &SubtokenVocab;
  const Vocabulary &NodeVocab;
  EmbeddingTable SubtokenEmbed;
  EmbeddingTable NodeEmbed;
  RecurrentCell PathRnn;
  Linear ContextProj;
};

/// code2seq for method name prediction.
class Code2SeqNamePredictor {
public:
  Code2SeqNamePredictor(const Vocabulary &SubtokenVocab,
                        const Vocabulary &NodeVocab,
                        const Vocabulary &TargetVocab,
                        const Code2SeqConfig &Config, uint64_t Seed);

  Var loss(const MethodSample &Sample) const;
  /// Greedy names for \p Samples (decodeGraphEncodings).
  std::vector<std::vector<std::string>>
  predict(const std::vector<MethodSample> &Samples) const;

  ParamStore &params() { return Store; }
  const Code2SeqEncoder &encoder() const { return Encoder; }

private:
  ParamStore Store;
  Rng InitRng;
  Code2SeqEncoder Encoder;
  SeqDecoder Decoder;
  const Vocabulary &TargetVocab;
};

/// code2seq with a classification head.
class Code2SeqClassifier {
public:
  Code2SeqClassifier(const Vocabulary &SubtokenVocab,
                     const Vocabulary &NodeVocab, size_t NumClasses,
                     const Code2SeqConfig &Config, uint64_t Seed);

  Var loss(const MethodSample &Sample) const;
  int predict(const MethodSample &Sample) const;

  ParamStore &params() { return Store; }

private:
  ParamStore Store;
  Rng InitRng;
  Code2SeqEncoder Encoder;
  Linear Head;
};

} // namespace liger

#endif // LIGER_MODELS_CODE2SEQ_H
