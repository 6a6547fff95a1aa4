//===-- models/Liger.h - The LIGER blended model ----------------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LIGER (§5): learns program embeddings from blended traces.
///
/// Encoder layers (Fig. 5):
///  1. Vocabulary embedding — one joint table over Ds ∪ Dd;
///  2. Fusion — a TreeLSTM embeds each statement via its AST; two
///     stacked RNNs embed each program state (f1 flattens object values
///     into primitive sequences, f2 folds per-variable vectors); an
///     attention network a1, queried by the running trace embedding
///     H^e_{i_j-1}, fuses the statement vector with the state vectors
///     of the accompanying concrete traces (uniform weights on the
///     first step, per the paper);
///  3. Executions embedding — RNN f3 folds fused step vectors into the
///     path embedding H^e_i;
///  4. Programs embedding — element-wise max pooling over paths.
///
/// Decoder: SeqDecoder attending over every H^e_{i_j} (method name
/// prediction). Classification replaces the decoder by a linear +
/// softmax head (§6.2).
///
/// The three §6.3 ablations are configuration switches:
/// UseStaticFeature, UseDynamicFeature, UseFusionAttention; an extra
/// MeanPoolPrograms switch ablates the pooling choice.
///
/// The graph encoder has one forward, the lockstep walk of
/// LigerEncoder::encodeBatch; encode() is its batch of one. Prediction
/// runs the forward-only, path-major LigerInference (models/Inference.h)
/// that serving runs and the tests pin this one against.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_MODELS_LIGER_H
#define LIGER_MODELS_LIGER_H

#include "models/Common.h"
#include "models/Decoder.h"
#include "models/StateTrie.h"

#include <unordered_map>

namespace liger {

/// LIGER hyper-parameters and ablation switches.
struct LigerConfig {
  size_t EmbedDim = 32;   ///< Vocabulary embedding (paper: 100).
  size_t Hidden = 32;     ///< Recurrent hidden size (paper: 100).
  size_t AttnHidden = 32; ///< Attention MLP hidden size.
  bool UseStaticFeature = true;   ///< §6.3.1 ablation when false.
  bool UseDynamicFeature = true;  ///< §6.3.2 ablation when false.
  bool UseFusionAttention = true; ///< §6.3.3 ablation when false.
  bool MeanPoolPrograms = false;  ///< Extra ablation: mean vs max pool.
  size_t MaxStepsPerTrace = 40;   ///< Truncate long blended traces.
  size_t MaxConcretePerPath = 5;  ///< Cap state traces fused per step.
};

/// Attention introspection for §6.1.2: average fusion weight assigned
/// to the symbolic (static) feature vector: 1, 1/N under uniform
/// fusion, or A1's weight (computed by LigerInference).
struct FusionStats {
  double StaticWeightSum = 0;
  size_t FusionSteps = 0;

  double staticMean() const {
    return FusionSteps == 0 ? 0.0 : StaticWeightSum / FusionSteps;
  }
};

/// The encoder (layers 1–4).
class LigerEncoder {
public:
  LigerEncoder(ParamStore &Store, const Vocabulary &JointVocab,
               const LigerConfig &Config, Rng &R);

  /// Encodes one method's blended traces: encodeBatch() over a batch
  /// of one. The memory holds the step embeddings H^e_{i_j} of every
  /// blended trace.
  GraphEncoding encode(const MethodTraces &Traces) const;

  /// Encodes a mini-batch of methods with every blended trace advanced
  /// in lockstep: at each step index the per-path component fusions
  /// run per lane (each path attends over its own components), then
  /// all live paths advance through one batched F3 step
  /// (RecurrentCell::stepBatch). A sample's values are bitwise the same
  /// in any batch, a batch of one included; only node creation order —
  /// and so gradient accumulation order across lanes — depends on the
  /// batch, following the timestep-major schedule SeqDecoder::lossBatch
  /// also uses. Program states share a two-level embedding across the
  /// whole batch (DESIGN.md §14.2): every distinct object value runs f1
  /// once and every distinct state prefix runs its f2 step once, each
  /// round embedding its new objects in one lockstep f1 run and its new
  /// trie edges with one batched f2 step per depth.
  std::vector<GraphEncoding>
  encodeBatch(const std::vector<const MethodTraces *> &Batch) const;

  const LigerConfig &config() const { return Config; }
  const Vocabulary &vocab() const { return Vocab; }

private:
  /// One sample's caches in encodeBatch: statement embeddings by
  /// statement, token embeddings by vocabulary id.
  struct SampleCache {
    std::unordered_map<const Stmt *, Var> Stmts;
    std::unordered_map<int, Var> Tokens;
  };

  /// encodeBatch's state embeddings for one call (Liger.cpp).
  class BatchStates;

  Var tokenEmbed(int Id, SampleCache &Cache) const;
  Var embedStatement(const Stmt *S, SampleCache &Cache) const;
  /// The fusion rule over one step's components (the statement vector,
  /// when enabled, first); null when there are none.
  Var fuse(const std::vector<Var> &Components, size_t J, Var PrevH) const;

  LigerConfig Config;
  const Vocabulary &Vocab;
  EmbeddingTable Embed;       ///< Layer 1 (joint Ds ∪ Dd).
  ChildSumTreeLstm StmtTree;  ///< Statement embedding.
  RecurrentCell F1;           ///< Object-value flattening RNN (Eq. 3).
  RecurrentCell F2;           ///< State RNN over variable embeddings.
  AttentionScorer A1;         ///< Fusion attention.
  RecurrentCell F3;           ///< Executions embedding RNN.
  ValueTokenIds ValueIds;     ///< Value token ids of program states.
};

/// LIGER for method name prediction (encoder + attention decoder).
class LigerNamePredictor {
public:
  LigerNamePredictor(const Vocabulary &JointVocab,
                     const Vocabulary &TargetVocab,
                     const LigerConfig &Config, uint64_t Seed);

  /// Teacher-forced loss for one sample: lossBatch() over a batch of one.
  Var loss(const MethodSample &Sample) const;

  /// Teacher-forced losses for a mini-batch decoded in lockstep (see
  /// SeqDecoder::lossBatch): encodes every sample, then advances all
  /// decoders together so same-timestep samples share one batched cell
  /// step. A sample's loss value is bitwise the same in any batch, so
  /// each equals loss() on that sample.
  std::vector<Var>
  lossBatch(const std::vector<const MethodSample *> &Samples) const;

  /// Greedy names for \p Samples from one LigerInference over one
  /// parameter snapshot; \p Stats, if given, receives its statistics.
  std::vector<std::vector<std::string>>
  predict(const std::vector<MethodSample> &Samples,
          FusionStats *Stats = nullptr) const;

  ParamStore &params() { return Store; }
  const LigerEncoder &encoder() const { return Encoder; }

private:
  ParamStore Store;
  Rng InitRng;
  LigerEncoder Encoder;
  SeqDecoder Decoder;
  const Vocabulary &TargetVocab;
};

/// LIGER for semantics classification (encoder + linear softmax head).
class LigerClassifier {
public:
  LigerClassifier(const Vocabulary &JointVocab, size_t NumClasses,
                  const LigerConfig &Config, uint64_t Seed);

  Var loss(const MethodSample &Sample) const;
  int predict(const MethodSample &Sample) const;

  /// The program embedding itself (for embedding-space analyses).
  Tensor embed(const MethodTraces &Traces) const;

  ParamStore &params() { return Store; }

private:
  ParamStore Store;
  Rng InitRng;
  LigerEncoder Encoder;
  Linear Head;
};

} // namespace liger

#endif // LIGER_MODELS_LIGER_H
