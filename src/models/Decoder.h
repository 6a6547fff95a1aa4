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
//===----------------------------------------------------------------------===//

#ifndef LIGER_MODELS_DECODER_H
#define LIGER_MODELS_DECODER_H

#include "nn/Module.h"
#include "trace/Vocabulary.h"

namespace liger {

/// Decoder configuration.
struct SeqDecoderConfig {
  size_t TargetVocabSize = 0;
  size_t EmbedDim = 32;
  size_t Hidden = 32;
  size_t AttnHidden = 32;
  size_t MemoryDim = 32; ///< Dimension of the encoder memory vectors.
  size_t InitDim = 32;   ///< Dimension of the program embedding.
  CellKind Cell = CellKind::Gru;
};

/// Attention decoder over a memory of encoder vectors.
class SeqDecoder {
public:
  SeqDecoder() = default;
  SeqDecoder(ParamStore &Store, const std::string &Name,
             const SeqDecoderConfig &Config, Rng &R);

  /// Teacher-forced sequence loss. \p Memory must be non-empty;
  /// \p TargetIds must end with Eos.
  Var loss(const Var &ProgramEmbedding, const std::vector<Var> &Memory,
           const std::vector<int> &TargetIds) const;

  /// Teacher-forced losses for B samples decoded in lockstep: the
  /// batching scheduler (lockstepSchedule) groups the samples still
  /// active at each timestep into one multi-memory attention read, one
  /// batched cell step and one batched loss head, so same-timestep
  /// samples share a matmul. Per-sample loss values are
  /// bitwise-identical to loss() on each sample
  /// (BatchedLossEquivalenceTest); each batch op is pinned against a
  /// per-lane loop of its single-sample op (BatchedKernelEquivalenceTest).
  /// Returns each sample's mean loss.
  std::vector<Var>
  lossBatch(const std::vector<Var> &ProgramEmbeddings,
            const std::vector<std::vector<Var>> &Memories,
            const std::vector<std::vector<int>> &TargetIds) const;

  /// Greedy decoding until Eos or \p MaxLen tokens. Returned ids do not
  /// include Eos.
  std::vector<int> decodeGreedy(const Var &ProgramEmbedding,
                                const std::vector<Var> &Memory,
                                size_t MaxLen) const;

private:
  /// Shared per-step computation: emits logits for the next token,
  /// attending over a prepared memory (key-side projections cached
  /// once per decode by AttentionScorer::prepare).
  Var stepLogits(const Var &PrevEmbed, RecState &State,
                 const AttentionScorer::Memory &Mem) const;

  SeqDecoderConfig Config;
  EmbeddingTable TargetEmbed;
  Linear InitProj;  ///< Program embedding -> initial hidden state.
  RecurrentCell Cell;
  AttentionScorer Attn;
  Linear OutProj;   ///< [hidden ⊕ context] -> target logits.
};

} // namespace liger

#endif // LIGER_MODELS_DECODER_H
