//===-- nn/Module.h - Neural network building blocks ------------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The layer zoo used by LIGER and the baselines (§4 Preliminaries):
///
///  - Linear, Mlp — feedforward pieces (the attention scorers a1/a2);
///  - RecurrentCell — the packed GRU behind every recurrent layer (the
///    RNNs of Eq. (1); DESIGN.md §5 says why a GRU);
///  - ChildSumTreeLstm — the TreeLSTM of §4.2 used to embed statements
///    via their ASTs;
///  - EmbeddingTable — the vocabulary embedding layer of §5.1.1;
///  - AttentionScorer — the feedforward score networks a1/a2.
///
/// Every module registers its parameters in a ParamStore, which owns
/// the parameter nodes themselves (in a deque, so addresses are
/// stable): unlike graph nodes, parameters outlive every arena reset,
/// and the optimizer and (de)serialization reach them through here.
///
/// Each layer has exactly one graph op in nn/Graph.h, over any number
/// of lockstep lanes: RecurrentCell::stepBatch, the attention reads
/// and Linear::softmaxCrossEntropyBatch take B lanes, and step(),
/// contextOf() and a one-lane softmaxCrossEntropyBatch are one-lane
/// calls of the same op (one node each, no row view). The per-gate and
/// per-pair graphs they are bitwise pinned against live in
/// tests/ReferenceGraphs, reading the same packed parameters by name
/// from the ParamStore.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_NN_MODULE_H
#define LIGER_NN_MODULE_H

#include "lang/AstTree.h"
#include "nn/Graph.h"

#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace liger {

/// Registry and owner of trainable parameters with names (for
/// serialization). Parameter nodes get consecutive ParamIndex values,
/// which index GradSink slots during thread-parallel training.
class ParamStore {
public:
  Var addParam(const std::string &Name, Tensor Init);

  const std::vector<Var> &params() const { return Params; }
  const std::vector<std::string> &names() const { return Names; }

  /// Zeroes every parameter gradient.
  void zeroGrads();

  /// Total number of scalar parameters.
  size_t numScalars() const;

  /// Global L2 norm of all gradients.
  double gradNorm() const;

  /// Scales all gradients by \p Factor (gradient clipping support).
  void scaleGrads(float Factor);

  /// Accumulates a per-sample sink into the parameter gradients
  /// (Sink slot I corresponds to params()[I]).
  void accumulateSink(const GradSink &Sink);

  /// Saves all parameters to \p Path as a params-only "LGCK"
  /// checkpoint (versioned header, per-tensor name/shape records; see
  /// nn/Checkpoint.h). The file is written atomically — temp file,
  /// checked writes, flush+fsync, rename — so a failed or interrupted
  /// save never corrupts an existing file. Returns false on I/O error,
  /// with a diagnostic in \p Error when non-null.
  bool save(const std::string &Path, std::string *Error = nullptr) const;
  /// Loads parameters saved by save() — or the parameter section of a
  /// full training checkpoint. Names and shapes must match this store;
  /// a corrupt or truncated file fails cleanly with a diagnostic and
  /// leaves the store unmodified.
  bool load(const std::string &Path, std::string *Error = nullptr);

private:
  std::deque<Node> Storage; ///< Owns the nodes; deque keeps addresses stable.
  std::vector<Var> Params;
  std::vector<std::string> Names;
};

/// Fully connected layer: y = W x + b.
class Linear {
public:
  Linear() = default;
  Linear(ParamStore &Store, const std::string &Name, size_t In, size_t Out,
         Rng &R);

  Var apply(const Var &X) const;

  /// Softmax cross-entropy losses of this layer's logits over a block
  /// of B ≥ 1 lockstep lanes: one loss-head node (matmul logits + fused
  /// descending-lane backward) whose one-lane call is the single-sample
  /// loss head. Bitwise-identical to the apply() + softmaxCrossEntropy()
  /// chain run per lane in order (BatchedKernelEquivalenceTest).
  std::vector<Var> softmaxCrossEntropyBatch(ArrayRef<Var> Xs,
                                            ArrayRef<size_t> Targets) const;

private:
  Var W = nullptr, B = nullptr;
};

/// Two-layer perceptron with tanh hidden activation; used as the
/// attention score networks a1 and a2 (output dimension 1).
class Mlp {
public:
  Mlp() = default;
  Mlp(ParamStore &Store, const std::string &Name, size_t In, size_t Hidden,
      size_t Out, Rng &R);

  Var apply(const Var &X) const;

private:
  Linear First, Second;
};

/// The recurrent cell of every encoder and decoder RNN: a GRU whose
/// state is its hidden vector; step() consumes one input vector.
class RecurrentCell {
public:
  RecurrentCell() = default;
  RecurrentCell(ParamStore &Store, const std::string &Name, size_t In,
                size_t Hidden, Rng &R);

  /// Initial (zero) state.
  Var initial() const;

  /// One time step: a one-lane stepBatch, whose single gruCellBatchOp
  /// node is the new state — bitwise-identical to the per-gate
  /// reference graph in tests/ReferenceGraphs (FusedEquivalenceTest).
  Var step(const Var &X, const Var &Prev) const;

  /// One time step for B ≥ 1 concurrently-advancing sequences: stacks
  /// the inputs/states into one matmul-backed gruCellBatchOp and hands
  /// back per-sample row views (one lane: the node itself). Results are
  /// bitwise-identical to calling step() on each sample in order
  /// (BatchedKernelEquivalenceTest).
  std::vector<Var> stepBatch(ArrayRef<Var> Xs, ArrayRef<Var> Prev) const;

  /// Folds a sequence left-to-right; returns every state (useful for
  /// attention) — States[i] is the state after consuming Inputs[i].
  std::vector<Var> run(const std::vector<Var> &Inputs) const;

private:
  size_t Hidden = 0;
  // Gate weights packed in gate order z, r, n: PWx [3H x In], PBx [3H],
  // PWh [3H x H].
  Var PWx = nullptr, PBx = nullptr, PWh = nullptr;
};

/// Child-Sum TreeLSTM (§4.2, Tai et al.). Embeds a labelled ordered
/// tree bottom-up; leaf inputs come from a caller-supplied embedding
/// lookup (token -> Var).
class ChildSumTreeLstm {
public:
  ChildSumTreeLstm() = default;
  ChildSumTreeLstm(ParamStore &Store, const std::string &Name, size_t In,
                   size_t Hidden, Rng &R);

  /// Embeds \p Tree; \p Embed maps a node label to its input vector.
  /// Each tree node builds one fused treeLstmNodeOp (c- and h-node),
  /// bitwise-identical to the per-gate reference graph in
  /// tests/ReferenceGraphs (FusedEquivalenceTest).
  Var embed(const AstTree &Tree,
            const std::function<Var(const std::string &)> &Embed) const;

private:
  struct NodeState {
    Var H = nullptr, C = nullptr;
  };
  NodeState embedNode(
      const AstTree &Tree,
      const std::function<Var(const std::string &)> &Embed) const;

  size_t In = 0;
  size_t Hidden = 0;
  // Packed gate weights [4H x ...] in gate order i, o, u, f: the i/o/u
  // rows are contiguous so one matvecN covers every h~-side
  // projection; the per-child forget block sits last.
  Var PWx = nullptr, PBx = nullptr, PWh = nullptr;
};

/// Learned embedding table over a vocabulary.
class EmbeddingTable {
public:
  EmbeddingTable() = default;
  EmbeddingTable(ParamStore &Store, const std::string &Name, size_t VocabSize,
                 size_t Dim, Rng &R);

  /// The embedding vector of token id \p Id.
  Var lookup(int Id) const;

private:
  Var Table = nullptr;
};

/// Bahdanau-style additive attention scorer: score(q, k) =
/// v · tanh(W1 [k ⊕ q] + b1) — the paper's a1 (fusion) and a2
/// (decoder) networks. The first layer stays stored as one packed
/// [Hidden x (KeyDim+QueryDim)] matrix (checkpoint layout unchanged
/// from the old Mlp form), but is *computed* split: the key-side half
/// is projected once per memory via prepare() and cached, each step
/// only adds the broadcast query-side matvec (contextOf).
class AttentionScorer {
public:
  AttentionScorer() = default;
  AttentionScorer(ParamStore &Store, const std::string &Name, size_t QueryDim,
                  size_t KeyDim, size_t Hidden, Rng &R);

  /// Per-decode attention memory: the keys plus their cached key-side
  /// first-layer projections. Build once per memory with prepare(),
  /// reuse across every decoder step.
  using Memory = AttnMemory;

  /// One attention step's outputs: the context node plus a read-only
  /// peek at the T softmax weights (arena-owned; for attention
  /// statistics, not a graph node).
  using Result = AttnOut;

  /// Projects every key through the key-side half of the first layer
  /// (the expensive part, independent of the query) and packages it
  /// with the keys for repeated contextOf() calls.
  Memory prepare(const std::vector<Var> &Keys) const;

  /// Attended context for one query over a prepared memory: softmax of
  /// all scores, then the weighted key sum — a one-query
  /// contextOfMultiMemory, whose single attentionMultiMemoryOp node is
  /// the context, bitwise-identical to the per-pair reference graph
  /// (AttentionEquivalenceTest).
  Result contextOf(const Var &Query, const Memory &Mem) const;

  /// Attended contexts for a block of B ≥ 1 queries, each over its OWN
  /// prepared memory — the lockstep decoder's per-lane attention reads
  /// over distinct sample memories. One multi-memory node batches the
  /// query-side projection across lanes; results are bitwise-identical
  /// to per-query contextOf() calls in order.
  std::vector<Result> contextOfMultiMemory(ArrayRef<Var> Queries,
                                           ArrayRef<const Memory *> Mems) const;

private:
  size_t QueryDim = 0, KeyDim = 0;
  // Packed score MLP, same names/shapes/init draws as the Mlp this
  // class used to wrap: W1 [Hidden x (KeyDim+QueryDim)], B1 [Hidden],
  // W2 [1 x Hidden], B2 [1].
  Var W1 = nullptr, B1 = nullptr, W2 = nullptr, B2 = nullptr;
};

} // namespace liger

#endif // LIGER_NN_MODULE_H
