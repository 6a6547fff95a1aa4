//===-- models/Inference.h - Forward-only LIGER runtime ---------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The no-graph inference runtime: the LIGER encoder (LigerInference)
/// and the greedy decoder (GreedyDecoder) as forwards that run the
/// shared forward kernels (nn/InferOps.h) directly against an immutable
/// WeightImage — no graph Nodes, no backward payloads kept alive, no
/// arena of parent arrays. Temporaries come from a reusable ScratchArena
/// that is reset at the top of every request, so a warmed engine
/// allocates nothing on the steady path.
///
/// It is the evaluation forward as well as the serving one: every name
/// model's greedy names come from GreedyDecoder, and LIGER's validation
/// and test passes run LigerInference (DESIGN.md §13.2).
///
/// The encoder walks a method path by path, independently of the graph
/// encoder's lockstep walk (LigerEncoder::encodeBatch). Because the ops
/// are the literal functions the autodiff builders call, and no value
/// depends on the walk order, the embeddings are bitwise-identical to
/// the training-path forward, and the decodes to the graph decode
/// oracle of tests/ReferenceGraphs (InferenceEquivalenceTest pins this
/// for the full model and the ablation configs, and the decoder for
/// DYPRO and code2seq).
///
/// Since parameters are frozen at serving time, the embeddings the
/// graph encoder memoises for one call (statements per sample, objects
/// and state prefixes per batch) become one persistent,
/// parameter-versioned store per engine, keyed by token id
/// (DESIGN.md §13.2): object values memoise f1's final state by their
/// leaf-id sequence, states are nodes of an f2 prefix trie over
/// (primitive token | object) components — the keys of
/// models/StateTrie.h, which LigerEncoder::encodeBatch shares —
/// statements key by the token ids of their head tree behind a
/// per-request Stmt* memo, and every statement and state entry keeps
/// A1's key-side row. rebind() drops the store whenever it installs an
/// image with a different content digest.
///
/// An engine is single-threaded; serving spawns one per worker. It
/// borrows the WeightImage and vocabularies, which must outlive it.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_MODELS_INFERENCE_H
#define LIGER_MODELS_INFERENCE_H

#include "models/Liger.h"
#include "models/StateTrie.h"
#include "nn/WeightImage.h"
#include "trace/Trace.h"
#include "trace/Vocabulary.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace liger {

/// Bump allocator over retained float blocks: alloc() hands out
/// pointers that stay valid until the next reset(), reset() recycles
/// every block without freeing, so steady-state requests perform no
/// heap allocation for tensor temporaries. The embedding store keeps
/// its rows in one that it never resets.
class ScratchArena {
public:
  float *alloc(size_t N);
  float *allocZeroed(size_t N);
  /// Recycles all blocks; previously returned pointers become invalid.
  void reset();
  /// Total floats reserved across blocks (capacity, not live use).
  size_t floatsReserved() const;

private:
  struct Block {
    std::vector<float> Data;
    size_t Used = 0;
  };
  std::vector<Block> Blocks;
  size_t Active = 0;
};

/// Module weights bound from a WeightImage (raw pointers into the
/// image, which must outlive them): the runtime's Linear,
/// RecurrentCell and AttentionScorer.
struct LinearRef {
  size_t In = 0, Out = 0;
  const float *W = nullptr, *B = nullptr;
};
struct CellRef {
  size_t In = 0, Hidden = 0;
  const float *Wx = nullptr, *Bx = nullptr, *Wh = nullptr; // packed z, r, n
};
struct AttnRef {
  size_t QueryDim = 0, KeyDim = 0, Hidden = 0;
  const float *W1 = nullptr, *B1 = nullptr, *W2 = nullptr, *B2 = nullptr;
};
/// A TreeLSTM node's state.
struct CellState {
  const float *H = nullptr;
  const float *C = nullptr;
};

/// The greedy decoder of §5.1.2 as a forward-only op: a SeqDecoder's
/// weights, bound by its name prefix ("liger.dec", "dypro.dec",
/// "c2s.dec") from a WeightImage that must outlive it.
class GreedyDecoder {
public:
  GreedyDecoder(const WeightImage &Image, const std::string &Prefix,
                const SeqDecoderConfig &Config);

  /// Target ids decoded greedily from \p ProgramEmbedding over
  /// \p Memory (non-empty) until Eos or MaxDecodeLen tokens, Eos
  /// excluded; temporaries come from \p Arena.
  std::vector<int> decode(ScratchArena &Arena, const float *ProgramEmbedding,
                          const std::vector<const float *> &Memory) const;

private:
  SeqDecoderConfig Config;
  const float *TargetEmbed = nullptr; ///< [TargetVocabSize x EmbedDim].
  LinearRef Init, Out;
  CellRef Cell;
  AttnRef Attn;
};

/// Greedy names for \p Samples from a graph encoder (DYPRO, code2seq):
/// \p Decoder's weights in one snapshot of \p Store decode the values of
/// each sample's \p Encode, run in a graph arena reset per sample.
std::vector<std::vector<std::string>> decodeGraphEncodings(
    const ParamStore &Store, const SeqDecoder &Decoder,
    const Vocabulary &Target, const std::vector<MethodSample> &Samples,
    const std::function<GraphEncoding(const MethodSample &)> &Encode);

/// Forward-only inference over a frozen weight image.
class LigerInference {
public:
  /// One lookup per statement or state a fusion step embeds; a hit
  /// reuses a stored row, a miss computes and stores it.
  struct CacheStats {
    uint64_t StmtHits = 0;
    uint64_t StmtMisses = 0;
    uint64_t StateHits = 0;
    uint64_t StateMisses = 0;
  };

  /// \p Target may be null for encode-only use (then predictName() is
  /// unavailable). Binds every tensor the config implies; missing or
  /// mis-shaped tensors are fatal.
  LigerInference(const WeightImage &Image, const Vocabulary &JointVocab,
                 const Vocabulary *Target, const LigerConfig &Config);

  /// One request's encoder output: the program embedding
  /// (Config.Hidden floats) and the step memory the decoder attends
  /// over. Arena-owned: valid until the next encode/predict call on
  /// this engine.
  struct Encoding {
    const float *Program = nullptr;
    std::vector<const float *> StepMemory;
  };

  /// Runs the encoder once. A caller that wants the embedding and the
  /// name passes the result to predictName(const Encoding &), which
  /// decodes from the same step memory instead of encoding again.
  Encoding encodeForDecode(const MethodTraces &Traces);

  /// Program embedding (Config.Hidden floats, arena-owned: valid until
  /// the next encode/predict call on this engine).
  const float *encode(const MethodTraces &Traces);

  /// Greedy-decoded method-name subtokens.
  std::vector<std::string> predictName(const MethodTraces &Traces);
  /// The same, decoded from \p Encoded: this engine's latest
  /// encodeForDecode() result.
  std::vector<std::string> predictName(const Encoding &Encoded);

  /// Re-binds against \p Image (same architecture). The embedding
  /// store survives when the content digest matches and is dropped
  /// otherwise — it keys computations by parameter version.
  void rebind(const WeightImage &Image);

  const Digest128 &paramVersion() const { return Version; }
  const CacheStats &cacheStats() const { return Stats; }
  /// Fusion statistics of every method encoded since construction.
  const FusionStats &fusionStats() const { return Fusion; }
  const LigerConfig &config() const { return Config; }
  size_t arenaFloats() const { return Arena.floatsReserved(); }

private:
  void bind(const WeightImage &Image);

  /// One stored embedding: the vector a fusion step consumes (for a
  /// trie node, f2's state) and A1's key-side row, projected on first
  /// use.
  struct StoredRow {
    const float *H = nullptr;
    const float *KeyProj = nullptr;
  };

  /// The per-engine embedding store (DESIGN.md §13.2). Floats live in
  /// an arena as long as the store; rows are never moved.
  struct EmbeddingStore {
    ScratchArena Floats;
    /// The object memo and f2 prefix trie (models/StateTrie.h).
    StateTrie Trie;
    /// Per object entry: f1's final H (EmbedDim floats).
    std::vector<const float *> ObjectH;
    /// Per trie node: f2's state after the components on its path.
    std::deque<StoredRow> Nodes;
    /// Statements: pre-order (label id, arity) sequence -> row.
    SequenceMemo Stmts;
    std::deque<StoredRow> StmtRows;
  };

  void resetStore();
  void beginRequest();
  const float *tokenEmbed(int Id) const;

  CellState treeNode(const std::vector<int> &PreOrder, size_t &Pos);
  const float *keyProjRow(StoredRow &Row);
  uint32_t objectEntry(const Value &Object);
  StoredRow *embedStatement(const Stmt *S);
  StoredRow *embedState(const ProgramState &State);
  const float *fuseStep(const BlendedTrace &Path, size_t J,
                        size_t NumConcrete, const float *PrevH);
  void addFusionTerm(size_t J, double StaticWeight);
  const float *encodePath(const BlendedTrace &Path,
                          std::vector<const float *> &StepMemory);

  LigerConfig Config;
  const Vocabulary &Vocab;
  const Vocabulary *TargetVocab = nullptr;
  Digest128 Version{};

  // Bound weights (raw pointers into the borrowed image).
  const float *Embed = nullptr; ///< [V x EmbedDim] joint table.
  struct {
    const float *Wx = nullptr, *Bx = nullptr, *Wh = nullptr;
  } TreeW; ///< Child-sum TreeLSTM weights, packed i/o/u/f.
  CellRef F1, F2, F3;
  AttnRef A1;
  /// The "liger.dec" decoder; empty for an encode-only engine.
  std::optional<GreedyDecoder> Decoder;

  ValueTokenIds ValueIds;
  ScratchArena Arena;
  CacheStats Stats;
  FusionStats Fusion;
  /// This request's fusion terms by step index, summed step-major as
  /// the graph encoder walks (double sums depend on the order).
  std::vector<std::vector<double>> FusionTerms;
  EmbeddingStore Store;
  /// Per-request memo in front of Store.Stmts: Stmt pointers are only
  /// stable while the request's Program lives.
  HashIndex RequestStmts;
  // Reused per-call buffers (an engine is single-threaded).
  std::vector<int> IdScratch;
  std::vector<StoredRow *> FuseRows;
  std::vector<const float *> FuseKeys;
};

} // namespace liger

#endif // LIGER_MODELS_INFERENCE_H
