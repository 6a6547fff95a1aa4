//===-- models/Dypro.h - DYPRO dynamic-only baseline ------------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reimplementation of DYPRO [26], the state-of-the-art dynamic model
/// the paper compares against: program embeddings learned from concrete
/// state traces only. Per §6.1 ("we feed the variable names together
/// with their values for DYPRO to embed execution traces"), each
/// variable's embedding is the concatenation of its name embedding and
/// its value embedding. Each concrete execution trace is embedded by a
/// recurrent network over its state vectors *separately*, then all
/// trace embeddings are pooled into the program embedding — unlike
/// LIGER, there is no path grouping and no symbolic dimension. Values
/// are read as token ids through LIGER's ValueTokenIds
/// (models/StateTrie.h), so attr(v) is the same for both models.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_MODELS_DYPRO_H
#define LIGER_MODELS_DYPRO_H

#include "models/Common.h"
#include "models/Decoder.h"
#include "models/StateTrie.h"

#include <unordered_map>

namespace liger {

/// DYPRO hyper-parameters.
struct DyproConfig {
  size_t EmbedDim = 32;
  size_t Hidden = 32;
  size_t AttnHidden = 32;
  size_t MaxStatesPerTrace = 40;
  size_t MaxTraces = 100; ///< Cap on executions consumed per method.
  /// Cap on the decoder's attention memory: when the per-state hidden
  /// count exceeds this, evenly strided states are kept. Purely an
  /// engineering bound (the decode-attention cost is quadratic-ish in
  /// it); the trace RNN still consumes every state.
  size_t MaxAttentionMemory = 256;
};

/// Encoder shared by the name predictor and the classifier.
class DyproEncoder {
public:
  DyproEncoder(ParamStore &Store, const Vocabulary &Vocab,
               const DyproConfig &Config, Rng &R);

  /// The memory holds the per-state hiddens of all traces.
  GraphEncoding encode(const MethodTraces &Traces) const;

private:
  /// One encode() call's token embeddings by vocabulary id, and its
  /// leaf-id scratch.
  struct EncodeContext {
    std::unordered_map<int, Var> Tokens;
    std::vector<int> LeafIds;
  };

  Var tokenEmbed(int Id, EncodeContext &Ctx) const;
  /// \p NameIds holds the vocabulary ids of the variable names.
  Var embedState(const ProgramState &State, const std::vector<int> &NameIds,
                 EncodeContext &Ctx) const;

  DyproConfig Config;
  const Vocabulary &Vocab;
  EmbeddingTable Embed;
  RecurrentCell F1;    ///< Object-value flattening RNN.
  RecurrentCell F2;    ///< State RNN over (name ⊕ value) embeddings.
  RecurrentCell Trace; ///< RNN over a trace's state vectors.
  ValueTokenIds ValueIds;
};

/// DYPRO for method name prediction.
class DyproNamePredictor {
public:
  DyproNamePredictor(const Vocabulary &Vocab, const Vocabulary &TargetVocab,
                     const DyproConfig &Config, uint64_t Seed);

  Var loss(const MethodSample &Sample) const;
  /// Greedy names for \p Samples (decodeGraphEncodings).
  std::vector<std::vector<std::string>>
  predict(const std::vector<MethodSample> &Samples) const;

  ParamStore &params() { return Store; }
  const DyproEncoder &encoder() const { return Encoder; }

private:
  ParamStore Store;
  Rng InitRng;
  DyproEncoder Encoder;
  SeqDecoder Decoder;
  const Vocabulary &TargetVocab;
};

/// DYPRO for semantics classification.
class DyproClassifier {
public:
  DyproClassifier(const Vocabulary &Vocab, size_t NumClasses,
                  const DyproConfig &Config, uint64_t Seed);

  Var loss(const MethodSample &Sample) const;
  int predict(const MethodSample &Sample) const;

  ParamStore &params() { return Store; }

private:
  ParamStore Store;
  Rng InitRng;
  DyproEncoder Encoder;
  Linear Head;
};

/// Adds the variable-name tokens DYPRO needs to \p Vocab.
void addVariableNamesToVocabulary(const MethodSample &Sample,
                                  Vocabulary &Vocab);

} // namespace liger

#endif // LIGER_MODELS_DYPRO_H
