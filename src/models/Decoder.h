//===-- models/Decoder.h - Attention sequence decoder -----------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The attention decoder shared by LIGER, DYPRO, and code2seq (§5.1.2):
/// a recurrent cell initialized from the program embedding that emits
/// method-name sub-tokens, attending at each step over a memory of
/// encoder vectors (for LIGER: every step embedding H^e_{i_j} of every
/// blended trace) via the feedforward score network a2.
///
/// Each decoder step runs one graph op per layer — the multi-memory
/// attention read, the GRU step and the linear + softmax loss head —
/// whatever the number of lanes, so a batch of one builds the
/// single-sample graph. Greedy decoding is forward-only: GreedyDecoder
/// (models/Inference.h) binds a SeqDecoder's parameters by its name
/// prefix and runs the same forwards (nn/InferOps.h) with one lane.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_MODELS_DECODER_H
#define LIGER_MODELS_DECODER_H

#include "nn/Module.h"
#include "trace/Vocabulary.h"

namespace liger {

/// Most sub-tokens a greedy decode emits (Eos excluded).
constexpr size_t MaxDecodeLen = 8;

/// Decoder configuration.
struct SeqDecoderConfig {
  size_t TargetVocabSize = 0;
  size_t EmbedDim = 32;
  size_t Hidden = 32;
  size_t AttnHidden = 32;
  size_t MemoryDim = 32; ///< Dimension of the encoder memory vectors.
  size_t InitDim = 32;   ///< Dimension of the program embedding.

  /// The decoder of a LIGER, DYPRO or code2seq config: memory vectors
  /// and program embedding are both Hidden wide.
  template <typename ModelConfig>
  static SeqDecoderConfig forModel(const ModelConfig &Cfg,
                                   const Vocabulary &Target) {
    SeqDecoderConfig DC;
    DC.TargetVocabSize = static_cast<size_t>(Target.size());
    DC.EmbedDim = Cfg.EmbedDim;
    DC.Hidden = Cfg.Hidden;
    DC.AttnHidden = Cfg.AttnHidden;
    DC.MemoryDim = Cfg.Hidden;
    DC.InitDim = Cfg.Hidden;
    return DC;
  }
};

/// An encoder's output as the decoder reads it: the program embedding
/// and the attention memory.
struct GraphEncoding {
  Var ProgramEmbedding;
  std::vector<Var> Memory;
};

/// Attention decoder over a memory of encoder vectors.
class SeqDecoder {
public:
  SeqDecoder() = default;
  SeqDecoder(ParamStore &Store, const std::string &Name,
             const SeqDecoderConfig &Config, Rng &R);

  /// Teacher-forced losses for B samples decoded in lockstep: the
  /// batching scheduler (lockstepSchedule) groups the samples still
  /// active at each timestep into one multi-memory attention read, one
  /// batched cell step and one batched loss head, so same-timestep
  /// samples share a matmul. Every memory must be non-empty and every
  /// target sequence must end with Eos. A batch of one is the
  /// per-sample loss (each op with one lane), and a sample's loss value
  /// is bitwise the same in any batch (BatchedLossEquivalenceTest);
  /// each op is pinned against a per-lane loop of one-lane calls
  /// (BatchedKernelEquivalenceTest).
  /// Returns each sample's mean loss.
  std::vector<Var>
  lossBatch(const std::vector<GraphEncoding> &Encs,
            const std::vector<std::vector<int>> &TargetIds) const;

  /// The parameter-name prefix, which GreedyDecoder binds by.
  const std::string &name() const { return Name; }
  const SeqDecoderConfig &config() const { return Config; }

private:
  std::string Name;
  SeqDecoderConfig Config;
  EmbeddingTable TargetEmbed;
  Linear InitProj;  ///< Program embedding -> initial hidden state.
  RecurrentCell Cell;
  AttentionScorer Attn;
  Linear OutProj;   ///< [hidden ⊕ context] -> target logits.
};

} // namespace liger

#endif // LIGER_MODELS_DECODER_H
