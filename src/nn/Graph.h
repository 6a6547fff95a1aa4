//===-- nn/Graph.h - Reverse-mode autodiff graph ----------------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Define-by-run reverse-mode automatic differentiation. Each operation
/// allocates a Node holding its value, its parents, and a backward
/// function; backward(loss) stamps the reachable subgraph and
/// accumulates gradients in tape order.
///
/// Nodes are plain structs bump-allocated from the thread's current
/// GraphArena: a Var is a raw Node pointer that stays valid until the
/// owning arena is reset. Backward passes are plain function pointers
/// with any per-op payload stored inline in the node (no std::function,
/// no shared_ptr, no per-op heap allocation on the hot path).
///
/// Tape order: an arena hands out nodes in creation order, and every op
/// creates its node after its parents, so the arena's node sequence is
/// a topological order of every graph built in it. backward() walks it
/// newest first and runs each stamped node — no hashing, no sorting.
/// The one-arena contract follows: every non-leaf node a backward pass
/// reaches must live in the arena that is current when backward() is
/// called (build a graph and differentiate it under the same
/// GraphArena::Scope, and before that arena is reset); a LIGER_CHECK
/// fails otherwise. Leaves — parameters and constants — may live
/// anywhere: a ParamStore, another arena, another thread's graph.
///
/// The op set is what the LIGER/DYPRO/code2vec/code2seq models need:
/// matrix-vector products, elementwise arithmetic, tanh/sigmoid,
/// concatenation, embedding-row lookup, stacking scalar scores,
/// softmax, attention-style weighted combination, max/mean pooling, a
/// fused numerically-stable softmax-cross-entropy loss, and the fused
/// GRU, TreeLSTM-node, attention and loss-head ops below. The GRU,
/// attention and loss head have one op each, over any number of lanes:
/// the per-lane operands come as an ArrayRef (a std::vector, or a
/// single operand for one lane), and one lane gets the op's node
/// itself, more lanes a row view each.
/// Each fused op is bitwise-identical to a chain of the elementary ops;
/// those reference chains live in tests/ReferenceGraphs and address
/// packed parameters through the rowsView/sliceView/colsView ops.
///
/// Thread-parallel training: graphs built on different threads (each on
/// its own arena) may share parameter nodes read-only. backward(Loss,
/// Sink) redirects parameter-gradient accumulation into the given
/// GradSink instead of the shared parameter nodes, so worker threads
/// can differentiate concurrently without synchronizing; the trainer
/// reduces the sinks in a fixed order afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_NN_GRAPH_H
#define LIGER_NN_GRAPH_H

#include "nn/GraphArena.h"
#include "nn/Tensor.h"
#include "support/ArrayRef.h"

#include <cstdint>
#include <vector>

namespace liger {

struct Node;
/// Handle to an autodiff node; ops compose these. Owned by a
/// GraphArena (graph nodes) or a ParamStore (parameters).
using Var = Node *;

/// One autodiff graph node.
struct Node {
  Tensor Value;
  Tensor Grad; ///< Allocated lazily (same shape as Value) on first use.
  Node **Parents = nullptr; ///< Arena-allocated parent array.
  uint32_t NumParents = 0;
  bool RequiresGrad = false;
  /// Index in the owning ParamStore, or -1 for non-parameter nodes.
  /// Parameter gradients are routed through the active GradSink (if
  /// any) so concurrent backward passes never write to shared nodes.
  int32_t ParamIndex = -1;
  /// The last backward pass that reached this non-leaf node (0: none).
  uint64_t Mark = 0;
  /// Propagates this node's Grad into its parents' grads.
  void (*BackwardFn)(Node &) = nullptr;
  // Small fixed payload for BackwardFn (meaning depends on the op):
  float FScalar = 0.0f;   ///< scale factor / 1-over-count
  size_t IScalar = 0;     ///< row index / CE target / view offset
  const float *AuxF = nullptr;   ///< arena-owned floats (CE probs)
  const size_t *AuxIdx = nullptr; ///< arena-owned indices (maxPool argmax)
  float *AuxM = nullptr; ///< arena-owned mutable floats (fused-cell
                         ///< activations, shared between the cell's
                         ///< c-node and h-node backward closures)

  /// The tensor this node's gradient accumulates into: the active
  /// GradSink's slot for parameters while a sink is installed,
  /// otherwise this node's own Grad (zero-initialized on first use).
  Tensor &grad();
};

/// Per-sample accumulator for parameter gradients, used by the
/// thread-parallel trainer. Slots are indexed by Node::ParamIndex and
/// allocated (zeroed, matching the parameter's shape) on first touch.
class GradSink {
public:
  /// The gradient slot for parameter \p Param (ParamIndex >= 0).
  Tensor &gradFor(const Node &Param);

  size_t size() const { return Grads.size(); }
  bool touched(size_t I) const { return I < Grads.size() && !Grads[I].empty(); }
  const Tensor &grad(size_t I) const { return Grads[I]; }

  /// Releases every slot (buffers return to the thread-local pool).
  void clear() { Grads.clear(); }

private:
  std::vector<Tensor> Grads;
};

/// Wraps a constant (no gradient).
Var constant(Tensor Value);
/// Wraps a trainable parameter (gradient accumulated across backward
/// calls until the optimizer zeroes it). Allocated on the current
/// arena; ParamStore-owned parameters use ParamStore::addParam.
Var parameter(Tensor Value);

/// y = M x (matrix [R x C] times vector [C] -> [R]).
Var matvec(const Var &M, const Var &X);
/// Elementwise sum (same shapes).
Var add(const Var &A, const Var &B);
/// Elementwise difference.
Var sub(const Var &A, const Var &B);
/// Elementwise (Hadamard) product.
Var mul(const Var &A, const Var &B);
/// Scalar multiple.
Var scale(const Var &A, float K);
/// Elementwise tanh.
Var tanhV(const Var &A);
/// Elementwise logistic sigmoid.
Var sigmoidV(const Var &A);
/// Concatenation of vectors.
Var concat(const Var &A, const Var &B);
/// Row \p Index of matrix \p M as a vector (embedding lookup; backward
/// scatters into that row only).
Var row(const Var &M, size_t Index);
/// Packs scalar nodes (1-element vectors) into one vector.
Var stackScalars(const std::vector<Var> &Scalars);
/// Softmax over a vector.
Var softmax(const Var &Logits);
/// Dot product of two vectors -> scalar (1-element vector).
Var dot(const Var &A, const Var &B);
/// Sum of all entries -> scalar.
Var sumV(const Var &A);
/// Σ_i Weights[i] * Items[i] (attention combination). All Items share
/// one shape; Weights is a vector of matching length.
Var weightedCombine(const std::vector<Var> &Items, const Var &Weights);
/// Elementwise max over a non-empty set of same-shaped vectors
/// (backward routes to the argmax element).
Var maxPool(const std::vector<Var> &Items);
/// Elementwise mean over a non-empty set of same-shaped vectors.
Var meanPool(const std::vector<Var> &Items);
/// Numerically-stable fused softmax + negative log likelihood of
/// \p Target under \p Logits. Returns a scalar loss.
Var softmaxCrossEntropy(const Var &Logits, size_t Target);
/// Mean of scalar losses.
Var meanLoss(const std::vector<Var> &Losses);

//===----------------------------------------------------------------------===//
// Packed-parameter views and fused recurrent-cell ops
//===----------------------------------------------------------------------===//

/// Rows [Row0, Row0 + Rows) of matrix \p M as a matrix view (a copy;
/// backward scatters into that row range). With sliceView, this
/// addresses one gate block of a packed gate weight — how the per-gate
/// reference graphs in tests/ReferenceGraphs read the cells' packed
/// parameters.
Var rowsView(const Var &M, size_t Row0, size_t Rows);
/// Entries [Off, Off + Count) of vector \p V as a vector.
Var sliceView(const Var &V, size_t Off, size_t Count);
/// Columns [Col0, Col0 + Cols) of matrix \p M as a matrix (a copy;
/// backward scatters row-by-row into that column band). This addresses
/// the key-side or query-side half of an attention scorer's packed
/// [Hidden x (KeyDim+QueryDim)] first layer without splitting the
/// stored parameter (the per-pair reference graphs use it).
Var colsView(const Var &M, size_t Col0, size_t Cols);

/// Both outputs of a fused TreeLSTM node.
struct CellOut {
  Var H = nullptr;
  Var C = nullptr;
};

/// Fused Child-Sum TreeLSTM node (per-child forget gates) with packed
/// Wx [4H x In], bx [4H], Wh [4H x H] in gate order i, o, u, f — i/o/u
/// rows contiguous so one matvecN covers the h~-side projections, the
/// per-child f block last:
///   i = σ(..h~..), o = σ(..h~..), u = tanh(..h~..)
///   f_k = σ(Wx_f·x + bx_f + Wh_f·h_k)
///   c = i ⊙ u + Σ_k f_k ⊙ c_k,  h = o ⊙ tanh(c)
/// \p ChildH / \p ChildC are the K children's states; \p HSum is their
/// pre-summed h~ (kept as ordinary graph nodes so its gradient flows
/// through the existing add chain).
CellOut treeLstmNodeOp(const Var &Wx, const Var &Bx, const Var &Wh,
                       const Var &X, const Var &HSum,
                       const std::vector<Var> &ChildH,
                       const std::vector<Var> &ChildC);

//===----------------------------------------------------------------------===//
// Fused GRU step
//===----------------------------------------------------------------------===//

/// Fused GRU step of B concurrently-running sequences in one node:
///   z = σ(Wx[0:H]·x + bx[0:H] + Wh[0:H]·h)
///   r = σ(Wx[H:2H]·x + bx[H:2H] + Wh[H:2H]·h)
///   n = tanh(Wx[2H:3H]·x + bx[2H:3H] + Wh[2H:3H]·(r ⊙ h))
///   h' = n + z ⊙ (h - n)
/// per lane, with packed parameters Wx [3H x In], bx [3H], Wh [3H x H]
/// (gate order z, r, n). Inputs and previous states are stacked into
/// contiguous [B x In] / [B x H] blocks so every packed gate costs one
/// tiled matmul (inferops::gruCellForward, which the inference runtime
/// runs with one lane). One lane returns the node itself, its value
/// that lane's h'; more lanes return per-lane row views of the node's
/// [B x H] value (forward: zero-copy; backward: an addAcc into the
/// node's grad row). The single backward closure emits every parameter
/// and input gradient, replacing the ~16 nodes per lane of the
/// per-gate graph, and replays lanes in descending order — where B
/// one-lane nodes created in lane order sit in the newest-first tape
/// walk — so a lane's values and gradients do not depend on B.
/// Bitwise-identical to the per-gate reference graph
/// (tests/ReferenceGraphs, FusedEquivalenceTest) and to a per-lane loop
/// of one-lane calls (BatchedKernelEquivalenceTest).
std::vector<Var> gruCellBatchOp(const Var &Wx, const Var &Bx, const Var &Wh,
                                ArrayRef<Var> Xs, ArrayRef<Var> HPrevs);

//===----------------------------------------------------------------------===//
// Fused attention ops
//===----------------------------------------------------------------------===//

/// Key-side half of a batched additive-attention score: one node whose
/// [T x Hidden] value holds W1[:, 0:KeyDim] · key_t + b1 for every key,
/// computed with one strided matvec per key over the packed
/// [Hidden x (KeyDim+QueryDim)] first-layer weight \p W1. Keys are
/// constant across decoder steps, so callers build this once per
/// memory and share it across every attention step. Bitwise-identical
/// to the per-key add(matvec(colsView(W1, 0, KeyDim), key), b1) chain.
Var attentionKeyProj(const Var &W1, const Var &B1,
                     const std::vector<Var> &Keys);

/// An attention memory: its keys plus their key-side projection
/// (attentionKeyProj over the scorer's W1/B1), built once per memory
/// and shared by every attention step over it.
struct AttnMemory {
  std::vector<Var> Keys;
  Var KeyProj = nullptr; ///< [T x Hidden] attentionKeyProj node.
};

/// Result of one fused attention step: the context vector node plus a
/// read-only peek at the T softmax weights (arena-owned, valid until
/// the arena resets — for attention statistics, not a graph node).
struct AttnOut {
  Var Context = nullptr;
  const float *Weights = nullptr;
};

/// Fused additive-attention step of B queries, each over its OWN
/// memory, in a single node computing, for query q and every key t of
/// its memory,
///   s_t = W2 · tanh(KeyProj_q[t] + W1[:, KeyDim:] · q) + b2
///   a = softmax(s),  context_q = Σ_t a_t · key_t
/// Mems[i] is query i's memory. The query-side projections collapse
/// into one [B x Hidden] tiled matmul over the shared W1 band (each row
/// bitwise the one-query strided matvec); the per-key walk then runs
/// per query over that query's keys (inferops::attentionForward, which
/// the inference runtime runs with one query). One query gets the node
/// itself as its context, more
/// queries a row view each — the 1-node-per-step discipline of the
/// fused GRU, replacing the ~6·T nodes per query of the per-pair score
/// chain. A single backward closure emits all gradients (W1, W2, b2,
/// queries, key projections, keys), replaying the queries in
/// descending order, so a query's values and gradients do not depend
/// on B. Bitwise-identical to the per-pair reference graph in
/// tests/ReferenceGraphs (AttentionEquivalenceTest) and to a per-query
/// loop of one-query calls (BatchedKernelEquivalenceTest).
std::vector<AttnOut> attentionMultiMemoryOp(const Var &W1, const Var &W2,
                                            const Var &B2,
                                            ArrayRef<Var> Queries,
                                            ArrayRef<const AttnMemory *> Mems);

//===----------------------------------------------------------------------===//
// Batched loss head
//===----------------------------------------------------------------------===//

/// Linear head + softmax cross-entropy for B lockstep lanes: logits for
/// every lane in one [B x V] tiled matmul over the shared head weight
/// (inferops::linearForward; each row bitwise ≡ the per-lane matvec),
/// a per-lane bias add + stable softmax-NLL, and one fused backward
/// that replays the per-lane add/matvec/CE chains in descending lane
/// order (shared weight and bias regions through the *BatchDesc
/// kernels, per-lane input grads inline). One lane gets the loss node
/// itself (one node where the chain builds three), more lanes a scalar
/// row view each of the [B x 1] loss node — bitwise-identical to B
/// softmaxCrossEntropy(add(matvec(W, x), bias), target) chains.
std::vector<Var> softmaxCrossEntropyBatchOp(const Var &W, const Var &Bias,
                                            ArrayRef<Var> Xs,
                                            ArrayRef<size_t> Targets);

/// Runs reverse-mode accumulation from scalar \p Loss (grad seeded 1)
/// over the current arena's tape (see the one-arena contract above).
void backward(const Var &Loss);

/// Like backward(Loss), but parameter gradients accumulate into
/// \p Sink instead of the shared parameter nodes (thread-safe against
/// concurrent backward passes over the same parameters).
void backward(const Var &Loss, GradSink &Sink);

/// Softmax probabilities of \p Logits as plain numbers (inference
/// convenience; no graph node).
std::vector<float> softmaxValues(const Tensor &Logits);

/// Index of the largest logit.
size_t argmax(const Tensor &Logits);

} // namespace liger

#endif // LIGER_NN_GRAPH_H
