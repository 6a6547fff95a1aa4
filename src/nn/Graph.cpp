//===-- nn/Graph.cpp - Reverse-mode autodiff graph -------------------------===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//

#include "nn/Graph.h"

#include "nn/InferOps.h"

#include <algorithm>
#include <atomic>
#include <cstring>

using namespace liger;

namespace {

/// Backward-pass counter: each pass stamps the nodes it reaches with a
/// value no earlier pass on any thread used (Node::Mark starts at 0).
std::atomic<uint64_t> NextPass{1};

/// Sink installed by backward(Loss, Sink) for the duration of the
/// pass; Node::grad() routes parameter gradients through it.
thread_local GradSink *ActiveSink = nullptr;

Node *newNodeCommon(Tensor Value) {
  Node *N = GraphArena::current().newNode();
  N->Value = std::move(Value);
  return N;
}

Node *finishNode(Node *N, void (*BackwardFn)(Node &)) {
  N->BackwardFn = BackwardFn;
  for (uint32_t I = 0; I < N->NumParents; ++I)
    if (N->Parents[I]->RequiresGrad) {
      N->RequiresGrad = true;
      break;
    }
  return N;
}

/// A node holding \p Value with \p NumParents arena-allocated parent
/// slots, which the caller fills before finishNode().
Node *newNodeWithParents(Tensor Value, size_t NumParents) {
  Node *N = newNodeCommon(std::move(Value));
  N->NumParents = static_cast<uint32_t>(NumParents);
  N->Parents = GraphArena::current().allocArray<Node *>(NumParents);
  return N;
}

Node *makeNode(Tensor Value, std::initializer_list<Var> Parents,
               void (*BackwardFn)(Node &)) {
  Node *N = newNodeWithParents(std::move(Value), Parents.size());
  std::copy(Parents.begin(), Parents.end(), N->Parents);
  return finishNode(N, BackwardFn);
}

Node *makeNode(Tensor Value, const std::vector<Var> &Parents,
               void (*BackwardFn)(Node &)) {
  Node *N = newNodeWithParents(std::move(Value), Parents.size());
  std::copy(Parents.begin(), Parents.end(), N->Parents);
  return finishNode(N, BackwardFn);
}

/// Extra parent appended after \p Items (weightedCombine's weights).
Node *makeNode(Tensor Value, const std::vector<Var> &Items, Var Extra,
               void (*BackwardFn)(Node &)) {
  Node *N = newNodeWithParents(std::move(Value), Items.size() + 1);
  *std::copy(Items.begin(), Items.end(), N->Parents) = Extra;
  return finishNode(N, BackwardFn);
}

} // namespace

Tensor &Node::grad() {
  if (ParamIndex >= 0 && ActiveSink)
    return ActiveSink->gradFor(*this);
  if (Grad.empty() && !Value.empty())
    Grad = Tensor::zerosLike(Value);
  return Grad;
}

Tensor &GradSink::gradFor(const Node &Param) {
  size_t Index = static_cast<size_t>(Param.ParamIndex);
  if (Index >= Grads.size())
    Grads.resize(Index + 1);
  if (Grads[Index].empty())
    Grads[Index] = Tensor::zerosLike(Param.Value);
  return Grads[Index];
}

Var liger::constant(Tensor Value) { return newNodeCommon(std::move(Value)); }

Var liger::parameter(Tensor Value) {
  Var N = constant(std::move(Value));
  N->RequiresGrad = true;
  return N;
}

//===----------------------------------------------------------------------===//
// Ops
//===----------------------------------------------------------------------===//

namespace {

void matvecBackward(Node &N) {
  Node &MN = *N.Parents[0];
  Node &XN = *N.Parents[1];
  size_t Rows = MN.Value.dim(0), Cols = MN.Value.dim(1);
  const float *G = N.Grad.data();
  if (MN.RequiresGrad)
    kernels::rank1Acc(Rows, Cols, G, XN.Value.data(), MN.grad().data());
  if (XN.RequiresGrad)
    kernels::matvecTAcc(Rows, Cols, MN.Value.data(), G, XN.grad().data());
}

} // namespace

Var liger::matvec(const Var &M, const Var &X) {
  LIGER_CHECK(M->Value.rank() == 2 && X->Value.rank() == 1,
              "matvec expects matrix and vector");
  size_t Rows = M->Value.dim(0), Cols = M->Value.dim(1);
  LIGER_CHECK(Cols == X->Value.dim(0), "matvec dimension mismatch");
  Tensor Out = Tensor::zeros(Rows);
  kernels::matvec(Rows, Cols, M->Value.data(), X->Value.data(), Out.data());
  return makeNode(std::move(Out), {M, X}, matvecBackward);
}

namespace {

void addBackward(Node &N) {
  for (uint32_t P = 0; P < 2; ++P)
    if (N.Parents[P]->RequiresGrad)
      N.Parents[P]->grad().accumulate(N.Grad);
}

void subBackward(Node &N) {
  if (N.Parents[0]->RequiresGrad)
    N.Parents[0]->grad().accumulate(N.Grad);
  if (N.Parents[1]->RequiresGrad)
    kernels::axpy(N.Grad.size(), -1.0f, N.Grad.data(),
                  N.Parents[1]->grad().data());
}

void mulBackward(Node &N) {
  Node &AN = *N.Parents[0];
  Node &BN = *N.Parents[1];
  size_t Size = N.Grad.size();
  const float *G = N.Grad.data();
  if (AN.RequiresGrad)
    kernels::mulAcc(Size, G, BN.Value.data(), AN.grad().data());
  if (BN.RequiresGrad)
    kernels::mulAcc(Size, G, AN.Value.data(), BN.grad().data());
}

void scaleBackward(Node &N) {
  if (N.Parents[0]->RequiresGrad)
    kernels::axpy(N.Grad.size(), N.FScalar, N.Grad.data(),
                  N.Parents[0]->grad().data());
}

void tanhBackward(Node &N) {
  if (!N.Parents[0]->RequiresGrad)
    return;
  kernels::tanhGradAcc(N.Grad.size(), N.Grad.data(), N.Value.data(),
                       N.Parents[0]->grad().data());
}

void sigmoidBackward(Node &N) {
  if (!N.Parents[0]->RequiresGrad)
    return;
  kernels::sigmoidGradAcc(N.Grad.size(), N.Grad.data(), N.Value.data(),
                          N.Parents[0]->grad().data());
}

} // namespace

Var liger::add(const Var &A, const Var &B) {
  LIGER_CHECK(A->Value.sameShape(B->Value), "add shape mismatch");
  Tensor Out = A->Value;
  Out.accumulate(B->Value);
  return makeNode(std::move(Out), {A, B}, addBackward);
}

Var liger::sub(const Var &A, const Var &B) {
  LIGER_CHECK(A->Value.sameShape(B->Value), "sub shape mismatch");
  Tensor Out = A->Value;
  kernels::axpy(Out.size(), -1.0f, B->Value.data(), Out.data());
  return makeNode(std::move(Out), {A, B}, subBackward);
}

Var liger::mul(const Var &A, const Var &B) {
  LIGER_CHECK(A->Value.sameShape(B->Value), "mul shape mismatch");
  Tensor Out = A->Value;
  float *__restrict O = Out.data();
  const float *__restrict BV = B->Value.data();
  for (size_t I = 0; I < Out.size(); ++I)
    O[I] *= BV[I];
  return makeNode(std::move(Out), {A, B}, mulBackward);
}

Var liger::scale(const Var &A, float K) {
  Tensor Out = A->Value;
  Out.scale(K);
  Node *N = makeNode(std::move(Out), {A}, scaleBackward);
  N->FScalar = K;
  return N;
}

Var liger::tanhV(const Var &A) {
  Tensor Out = A->Value;
  kernels::tanhMap(Out.size(), Out.data(), Out.data());
  return makeNode(std::move(Out), {A}, tanhBackward);
}

Var liger::sigmoidV(const Var &A) {
  Tensor Out = A->Value;
  kernels::sigmoidMap(Out.size(), Out.data(), Out.data());
  return makeNode(std::move(Out), {A}, sigmoidBackward);
}

namespace {

void concatBackward(Node &N) {
  size_t NA = N.Parents[0]->Value.size();
  size_t NB = N.Parents[1]->Value.size();
  if (N.Parents[0]->RequiresGrad)
    kernels::addAcc(NA, N.Grad.data(), N.Parents[0]->grad().data());
  if (N.Parents[1]->RequiresGrad)
    kernels::addAcc(NB, N.Grad.data() + NA, N.Parents[1]->grad().data());
}

void rowBackward(Node &N) {
  if (!N.Parents[0]->RequiresGrad)
    return;
  size_t Cols = N.Value.size();
  float *MG = N.Parents[0]->grad().data() + N.IScalar * Cols;
  kernels::addAcc(Cols, N.Grad.data(), MG);
}

void stackScalarsBackward(Node &N) {
  for (uint32_t I = 0; I < N.NumParents; ++I)
    if (N.Parents[I]->RequiresGrad)
      N.Parents[I]->grad()[0] += N.Grad[I];
}

void softmaxBackward(Node &N) {
  if (!N.Parents[0]->RequiresGrad)
    return;
  // dL/dx_i = y_i (g_i - Σ_j g_j y_j)
  kernels::softmaxGradAcc(N.Value.size(), N.Grad.data(), N.Value.data(),
                          N.Parents[0]->grad().data());
}

void dotBackward(Node &N) {
  float G = N.Grad[0];
  Node &AN = *N.Parents[0];
  Node &BN = *N.Parents[1];
  if (AN.RequiresGrad)
    kernels::axpy(AN.Value.size(), G, BN.Value.data(), AN.grad().data());
  if (BN.RequiresGrad)
    kernels::axpy(BN.Value.size(), G, AN.Value.data(), BN.grad().data());
}

void sumBackward(Node &N) {
  if (!N.Parents[0]->RequiresGrad)
    return;
  float G = N.Grad[0];
  float *AG = N.Parents[0]->grad().data();
  for (size_t I = 0; I < N.Parents[0]->Value.size(); ++I)
    AG[I] += G;
}

} // namespace

Var liger::concat(const Var &A, const Var &B) {
  LIGER_CHECK(A->Value.rank() == 1 && B->Value.rank() == 1,
              "concat expects vectors");
  size_t NA = A->Value.dim(0), NB = B->Value.dim(0);
  Tensor Out = Tensor::zeros(NA + NB);
  std::memcpy(Out.data(), A->Value.data(), NA * sizeof(float));
  std::memcpy(Out.data() + NA, B->Value.data(), NB * sizeof(float));
  return makeNode(std::move(Out), {A, B}, concatBackward);
}

Var liger::row(const Var &M, size_t Index) {
  LIGER_CHECK(M->Value.rank() == 2, "row expects a matrix");
  LIGER_CHECK(Index < M->Value.dim(0), "row index out of range");
  size_t Cols = M->Value.dim(1);
  // Zero-copy: the row node's value aliases the parent matrix (nodes
  // never mutate their values, and parent and view share one arena
  // lifetime), so lockstep-batched steps pay no per-lane copy.
  Node *N = makeNode(Tensor::view(M->Value.data() + Index * Cols, Cols),
                     {M}, rowBackward);
  N->IScalar = Index;
  return N;
}

Var liger::stackScalars(const std::vector<Var> &Scalars) {
  LIGER_CHECK(!Scalars.empty(), "stackScalars needs at least one input");
  Tensor Out = Tensor::zeros(Scalars.size());
  for (size_t I = 0; I < Scalars.size(); ++I) {
    LIGER_CHECK(Scalars[I]->Value.size() == 1,
                "stackScalars inputs must be scalars");
    Out[I] = Scalars[I]->Value[0];
  }
  return makeNode(std::move(Out), Scalars, stackScalarsBackward);
}

Var liger::softmax(const Var &Logits) {
  Tensor Out = Tensor::fromVector(softmaxValues(Logits->Value));
  return makeNode(std::move(Out), {Logits}, softmaxBackward);
}

Var liger::dot(const Var &A, const Var &B) {
  LIGER_CHECK(A->Value.sameShape(B->Value), "dot shape mismatch");
  float Acc = kernels::dot(A->Value.size(), A->Value.data(), B->Value.data());
  Tensor Out = Tensor::zeros(1);
  Out[0] = Acc;
  return makeNode(std::move(Out), {A, B}, dotBackward);
}

Var liger::sumV(const Var &A) {
  float Acc = kernels::sum(A->Value.size(), A->Value.data());
  Tensor Out = Tensor::zeros(1);
  Out[0] = Acc;
  return makeNode(std::move(Out), {A}, sumBackward);
}

namespace {

void weightedCombineBackward(Node &N) {
  uint32_t NumItems = N.NumParents - 1;
  size_t Dim = N.Value.size();
  Node &WN = *N.Parents[NumItems];
  const float *__restrict G = N.Grad.data();
  for (uint32_t I = 0; I < NumItems; ++I) {
    Node &Item = *N.Parents[I];
    float W = WN.Value[I];
    if (Item.RequiresGrad)
      kernels::axpy(Dim, W, G, Item.grad().data());
    if (WN.RequiresGrad)
      WN.grad()[I] += kernels::dot(Dim, G, Item.Value.data());
  }
}

void maxPoolBackward(Node &N) {
  size_t Dim = N.Value.size();
  const size_t *ArgMax = N.AuxIdx;
  for (size_t D = 0; D < Dim; ++D) {
    Node &Winner = *N.Parents[ArgMax[D]];
    if (Winner.RequiresGrad)
      Winner.grad()[D] += N.Grad[D];
  }
}

void meanPoolBackward(Node &N) {
  size_t Dim = N.Value.size();
  float Inv = N.FScalar;
  for (uint32_t P = 0; P < N.NumParents; ++P) {
    Node &Parent = *N.Parents[P];
    if (Parent.RequiresGrad)
      kernels::axpy(Dim, Inv, N.Grad.data(), Parent.grad().data());
  }
}

void softmaxCrossEntropyBackward(Node &N) {
  if (!N.Parents[0]->RequiresGrad)
    return;
  float G = N.Grad[0];
  size_t Size = N.Parents[0]->Value.size();
  size_t Target = N.IScalar;
  const float *__restrict Probs = N.AuxF;
  float *__restrict LG = N.Parents[0]->grad().data();
  for (size_t I = 0; I < Size; ++I)
    LG[I] += G * Probs[I];
  LG[Target] -= G;
}

} // namespace

Var liger::weightedCombine(const std::vector<Var> &Items,
                           const Var &Weights) {
  LIGER_CHECK(!Items.empty(), "weightedCombine needs items");
  LIGER_CHECK(Weights->Value.rank() == 1 &&
                  Weights->Value.dim(0) == Items.size(),
              "one weight per item");
  size_t Dim = Items[0]->Value.dim(0);
  Tensor Out = Tensor::zeros(Dim);
  float *__restrict O = Out.data();
  for (size_t I = 0; I < Items.size(); ++I) {
    LIGER_CHECK(Items[I]->Value.dim(0) == Dim,
                "weightedCombine items must share shape");
    kernels::axpy(Dim, Weights->Value[I], Items[I]->Value.data(), O);
  }
  return makeNode(std::move(Out), Items, Weights, weightedCombineBackward);
}

Var liger::maxPool(const std::vector<Var> &Items) {
  LIGER_CHECK(!Items.empty(), "maxPool needs items");
  size_t Dim = Items[0]->Value.dim(0);
  Tensor Out = Items[0]->Value;
  size_t *ArgMax = GraphArena::current().allocArray<size_t>(Dim);
  for (size_t D = 0; D < Dim; ++D)
    ArgMax[D] = 0;
  for (size_t I = 1; I < Items.size(); ++I) {
    LIGER_CHECK(Items[I]->Value.dim(0) == Dim,
                "maxPool items must share shape");
    const float *V = Items[I]->Value.data();
    for (size_t D = 0; D < Dim; ++D)
      if (V[D] > Out[D]) {
        Out[D] = V[D];
        ArgMax[D] = I;
      }
  }
  Node *N = makeNode(std::move(Out), Items, maxPoolBackward);
  N->AuxIdx = ArgMax;
  return N;
}

Var liger::meanPool(const std::vector<Var> &Items) {
  LIGER_CHECK(!Items.empty(), "meanPool needs items");
  size_t Dim = Items[0]->Value.dim(0);
  Tensor Out = Tensor::zeros(Dim);
  float Inv = 1.0f / static_cast<float>(Items.size());
  for (const Var &Item : Items) {
    LIGER_CHECK(Item->Value.dim(0) == Dim, "meanPool items must share shape");
    kernels::axpy(Dim, Inv, Item->Value.data(), Out.data());
  }
  Node *N = makeNode(std::move(Out), Items, meanPoolBackward);
  N->FScalar = Inv;
  return N;
}

Var liger::softmaxCrossEntropy(const Var &Logits, size_t Target) {
  LIGER_CHECK(Target < Logits->Value.size(), "target out of range");
  std::vector<float> Probs = softmaxValues(Logits->Value);
  float Loss = -std::log(std::max(Probs[Target], 1e-12f));
  Tensor Out = Tensor::zeros(1);
  Out[0] = Loss;
  float *ProbsCopy = GraphArena::current().allocArray<float>(Probs.size());
  std::memcpy(ProbsCopy, Probs.data(), Probs.size() * sizeof(float));
  Node *N = makeNode(std::move(Out), {Logits}, softmaxCrossEntropyBackward);
  N->AuxF = ProbsCopy;
  N->IScalar = Target;
  return N;
}

Var liger::meanLoss(const std::vector<Var> &Losses) {
  LIGER_CHECK(!Losses.empty(), "meanLoss needs losses");
  return scale(sumV(stackScalars(Losses)),
               1.0f / static_cast<float>(Losses.size()));
}

//===----------------------------------------------------------------------===//
// Packed-parameter views
//===----------------------------------------------------------------------===//

namespace {

/// Backward for rowsView/sliceView: scatter the view's grad back into
/// the flat range [IScalar, IScalar + size) of the parent.
void viewBackward(Node &N) {
  if (!N.Parents[0]->RequiresGrad)
    return;
  kernels::addAcc(N.Grad.size(), N.Grad.data(),
                  N.Parents[0]->grad().data() + N.IScalar);
}

/// Backward for colsView: scatter each row of the view's grad into the
/// parent's column band starting at column IScalar, rows ascending.
void colsViewBackward(Node &N) {
  if (!N.Parents[0]->RequiresGrad)
    return;
  size_t Rows = N.Value.dim(0), Cols = N.Value.dim(1);
  size_t ParentCols = N.Parents[0]->Value.dim(1);
  kernels::addAcc2d(Rows, Cols, N.Grad.data(), Cols,
                    N.Parents[0]->grad().data() + N.IScalar, ParentCols);
}

} // namespace

Var liger::rowsView(const Var &M, size_t Row0, size_t Rows) {
  LIGER_CHECK(M->Value.rank() == 2, "rowsView expects a matrix");
  LIGER_CHECK(Row0 + Rows <= M->Value.dim(0), "rowsView range out of bounds");
  size_t Cols = M->Value.dim(1);
  Tensor Out = Tensor::zeros(Rows, Cols);
  std::memcpy(Out.data(), M->Value.data() + Row0 * Cols,
              Rows * Cols * sizeof(float));
  Node *N = makeNode(std::move(Out), {M}, viewBackward);
  N->IScalar = Row0 * Cols;
  return N;
}

Var liger::sliceView(const Var &V, size_t Off, size_t Count) {
  LIGER_CHECK(V->Value.rank() == 1, "sliceView expects a vector");
  LIGER_CHECK(Off + Count <= V->Value.size(), "sliceView range out of bounds");
  Tensor Out = Tensor::zeros(Count);
  std::memcpy(Out.data(), V->Value.data() + Off, Count * sizeof(float));
  Node *N = makeNode(std::move(Out), {V}, viewBackward);
  N->IScalar = Off;
  return N;
}

Var liger::colsView(const Var &M, size_t Col0, size_t Cols) {
  LIGER_CHECK(M->Value.rank() == 2, "colsView expects a matrix");
  LIGER_CHECK(Col0 + Cols <= M->Value.dim(1), "colsView range out of bounds");
  size_t Rows = M->Value.dim(0), ParentCols = M->Value.dim(1);
  Tensor Out = Tensor::zeros(Rows, Cols);
  for (size_t R = 0; R < Rows; ++R)
    std::memcpy(Out.data() + R * Cols,
                M->Value.data() + R * ParentCols + Col0, Cols * sizeof(float));
  Node *N = makeNode(std::move(Out), {M}, colsViewBackward);
  N->IScalar = Col0;
  return N;
}

//===----------------------------------------------------------------------===//
// Fused recurrent-cell ops
//===----------------------------------------------------------------------===//
//
// Each op collapses one cell step's ~12-16 graph nodes into one or two.
// The forwards compute all gate pre-activations through the packed
// weight blocks (matvecN: one pass over x / h for every gate), and a
// single backward closure replays the reference per-gate graph's
// backward node by node, in the same order, through the same kernels —
// so losses and gradients are bitwise-identical to the per-gate graph
// in tests/ReferenceGraphs.cpp (FusedEquivalenceTest pins this).
//
// Determinism/bitwise notes:
//  - every elementwise loop performs exactly one float operation per
//    element (separate loops over materialized buffers), so no
//    cross-operation FMA contraction can change roundings relative to
//    the reference chain of single-op graph nodes;
//  - gradient buffers start zeroed and are accumulated with +=, never
//    assigned, matching the reference nodes' fl(0 + g) behavior;
//  - per-row reductions share kernels::dot/matvec with the reference
//    matvec op.
//
// A TreeLSTM node produces two values (h, c) but a node has one Value,
// so its op builds two nodes: the c-node (created first) holds the
// inputs as parents, the gate activations in AuxM, and the combined
// backward; the h-node (created second, so its backward runs first)
// has the c-node as its only parent and routes ∂h/∂o into the shared
// AuxM payload and ∂h/∂c into the c-node's grad.
//===----------------------------------------------------------------------===//

namespace {

/// Allocates a 64-byte-aligned float payload on the current arena.
float *allocCellPayload(size_t Floats) {
  return static_cast<float *>(
      GraphArena::current().allocBytes(Floats * sizeof(float), 64));
}

/// Parameter/input gradient contributions of one gate: the backward of
/// the reference chain σ/tanh(add(add(matvec(Wx_g, x), bx_g),
/// matvec(Wh_g, hvec))), with \p PG the gate's pre-activation grad and
/// the packed-parameter regions addressed at gate row offset \p Row0.
void gateBackward(Node &WxN, Node &BxN, Node &WhN, Node &XN, Node &HVecN,
                  size_t Row0, size_t H, size_t In, const float *PG) {
  if (WhN.RequiresGrad)
    kernels::rank1Acc(H, H, PG, HVecN.Value.data(),
                      WhN.grad().data() + Row0 * H);
  if (HVecN.RequiresGrad)
    kernels::matvecTAcc(H, H, WhN.Value.data() + Row0 * H, PG,
                        HVecN.grad().data());
  if (BxN.RequiresGrad)
    kernels::addAcc(H, PG, BxN.grad().data() + Row0);
  if (WxN.RequiresGrad)
    kernels::rank1Acc(H, In, PG, XN.Value.data(),
                      WxN.grad().data() + Row0 * In);
  if (XN.RequiresGrad)
    kernels::matvecTAcc(H, In, WxN.Value.data() + Row0 * In, PG,
                        XN.grad().data());
}

/// Input-gradient half of gateBackward: the per-sample lane pass of the
/// fused batch backward applies ∂x/∂h here and leaves the
/// shared-parameter updates to the batched rank-1 kernels. Lanes'
/// input buffers are not disjoint — sibling state-trie edges share
/// their parent's state node, and lanes share token-embedding nodes —
/// so the lane pass stays sequential and descending: that order, not
/// only the within-sample one, fixes each shared gradient's chain.
/// \p Paired (x and h are distinct nodes of one width, both taking
/// grads) runs the two chains in one pass over the gate's rows.
void laneGateBackward(const float *WxV, const float *WhV, Node &XN,
                      Node &HVecN, bool Paired, size_t Row0, size_t H,
                      size_t In, const float *PG) {
  if (Paired) {
    kernels::matvecTAccPair(H, H, WhV + Row0 * H, WxV + Row0 * In, PG,
                            HVecN.grad().data(), XN.grad().data());
    return;
  }
  if (HVecN.RequiresGrad)
    kernels::matvecTAcc(H, H, WhV + Row0 * H, PG, HVecN.grad().data());
  if (XN.RequiresGrad)
    kernels::matvecTAcc(H, In, WxV + Row0 * In, PG, XN.grad().data());
}

/// One lane of the fused GRU batch backward: the per-gate reference
/// chain h' = add(n, mul(z, sub(h, n))) replayed without the
/// shared-parameter updates. Writes the three gate pre-activation
/// grads (and r ⊙ h, the n gate's Wh operand) into caller-provided
/// rows so the batch backward can apply every Wx/Bx/Wh region once
/// with the descending-lane kernels, and applies this sample's ∂x/∂h
/// in the exact reference within-sample order. \p Aux holds the lane's
/// z, r, n (3H floats); \p Tmp is 6H floats of scratch for its
/// intermediate grads.
void gruCellBackwardLane(const float *WxV, const float *WhV, Node &XN,
                         Node &HN, size_t H, size_t In, const float *G,
                         const float *Aux, float *PZG, float *PRG,
                         float *PNG, float *RHp, float *Tmp) {
  const float *Z = Aux, *R = Aux + H, *Nn = Aux + 2 * H;
  const float *HV = HN.Value.data();
  float *__restrict D = Tmp;
  float *ZG = Tmp + H, *DG = Tmp + 2 * H, *DN = Tmp + 3 * H,
        *RHG = Tmp + 4 * H, *RG = Tmp + 5 * H;
  std::memset(ZG, 0, 5 * H * sizeof(float));

  for (size_t I = 0; I < H; ++I)
    D[I] = HV[I] - Nn[I];
  kernels::mulAcc(H, G, D, ZG);
  kernels::mulAcc(H, G, Z, DG);
  if (HN.RequiresGrad)
    kernels::addAcc(H, DG, HN.grad().data());
  kernels::addAcc(H, G, DN);
  kernels::axpy(H, -1.0f, DG, DN);

  std::memset(PNG, 0, H * sizeof(float));
  kernels::tanhGradAcc(H, DN, Nn, PNG);
  for (size_t I = 0; I < H; ++I)
    RHp[I] = R[I] * HV[I];
  // Two gradients take two bands in one pass when x is a node of its
  // own (x's chain then never interleaves h's) and the bands are the
  // same width: here RHG with x's n-gate grad, below each of h's and
  // x's r- and z-gate grads.
  bool XOwn = XN.RequiresGrad && &XN != &HN && In == H;
  if (XOwn)
    kernels::matvecTAccPair(H, H, WhV + 2 * H * H, WxV + 2 * H * In, PNG,
                            RHG, XN.grad().data());
  else
    kernels::matvecTAcc(H, H, WhV + 2 * H * H, PNG, RHG);
  kernels::mulAcc(H, RHG, HV, RG);
  if (HN.RequiresGrad)
    kernels::mulAcc(H, RHG, R, HN.grad().data());
  if (XN.RequiresGrad && !XOwn)
    kernels::matvecTAcc(H, In, WxV + 2 * H * In, PNG, XN.grad().data());

  bool Paired = XOwn && HN.RequiresGrad;
  std::memset(PRG, 0, H * sizeof(float));
  kernels::sigmoidGradAcc(H, RG, R, PRG);
  laneGateBackward(WxV, WhV, XN, HN, Paired, H, H, In, PRG);
  std::memset(PZG, 0, H * sizeof(float));
  kernels::sigmoidGradAcc(H, ZG, Z, PZG);
  laneGateBackward(WxV, WhV, XN, HN, Paired, 0, H, In, PZG);
}

/// Batch-node backward: parents are Wx, Bx, Wh, X_0..X_{B-1},
/// H_0..H_{B-1} (B in IScalar), payload B stacked 3H gate slices.
/// Fused schedule: a descending per-lane pass computes each sample's
/// gate pre-activation grads and applies its input grads, then each
/// shared-parameter gradient region is walked exactly once by the
/// descending-lane batch kernels. Every parameter element's
/// accumulation chain (per-lane mul then add, descending) is the one
/// B one-lane nodes created in lane order produce in the newest-first
/// tape walk, so a lane's gradients do not depend on B. One lane uses
/// the same single scratch block.
void gruCellBatchBackward(Node &N) {
  size_t B = N.IScalar;
  size_t H = N.Value.size() / B;
  size_t In = N.Parents[3]->Value.size();
  Node &WxN = *N.Parents[0], &BxN = *N.Parents[1], &WhN = *N.Parents[2];
  const float *G = N.Grad.data();
  const float *WxV = WxN.Value.data(), *WhV = WhN.Value.data();

  // Per-lane gate grads and r ⊙ h rows, then one lane's temporaries.
  Tensor Scratch = Tensor::raw(4 * B + 6, H);
  float *PZG = Scratch.data(), *PRG = PZG + B * H, *PNG = PRG + B * H,
        *RH = PNG + B * H, *Tmp = RH + B * H;
  std::vector<const float *> Ptrs(3 * B);
  const float **XP = Ptrs.data(), **HP = XP + B, **RP = HP + B;
  for (size_t Bi = B; Bi-- > 0;) {
    Node &XN = *N.Parents[3 + Bi];
    Node &HN = *N.Parents[3 + B + Bi];
    XP[Bi] = XN.Value.data();
    HP[Bi] = HN.Value.data();
    RP[Bi] = RH + Bi * H;
    gruCellBackwardLane(WxV, WhV, XN, HN, H, In, G + Bi * H,
                        N.AuxM + Bi * 3 * H, PZG + Bi * H, PRG + Bi * H,
                        PNG + Bi * H, RH + Bi * H, Tmp);
  }
  if (WhN.RequiresGrad) {
    float *WhG = WhN.grad().data();
    kernels::rank1AccBatchDesc(B, H, H, PNG, H, RP, WhG + 2 * H * H);
    kernels::rank1AccBatchDesc(B, H, H, PRG, H, HP, WhG + H * H);
    kernels::rank1AccBatchDesc(B, H, H, PZG, H, HP, WhG);
  }
  if (BxN.RequiresGrad) {
    float *BxG = BxN.grad().data();
    kernels::addAccBatchDesc(B, H, PNG, H, BxG + 2 * H);
    kernels::addAccBatchDesc(B, H, PRG, H, BxG + H);
    kernels::addAccBatchDesc(B, H, PZG, H, BxG);
  }
  if (WxN.RequiresGrad) {
    float *WxG = WxN.grad().data();
    kernels::rank1AccBatchDesc(B, H, In, PNG, H, XP, WxG + 2 * H * In);
    kernels::rank1AccBatchDesc(B, H, In, PRG, H, XP, WxG + H * In);
    kernels::rank1AccBatchDesc(B, H, In, PZG, H, XP, WxG);
  }
}

/// TreeLSTM payload: i, o, u (3H), per-child f (K*H), tanh(c), dO
/// ((5+K)*H floats total); K lives in IScalar of both nodes.
void treeLstmBackwardH(Node &N) {
  Node &CN = *N.Parents[0];
  size_t H = N.Value.size();
  size_t K = N.IScalar;
  const float *G = N.Grad.data();
  const float *O = N.AuxM + H, *Tc = N.AuxM + (3 + K) * H;
  float *DO = N.AuxM + (4 + K) * H;
  kernels::mulAcc(H, G, Tc, DO);
  Tensor TCG = Tensor::zeros(H);
  kernels::mulAcc(H, G, O, TCG.data());
  kernels::tanhGradAcc(H, TCG.data(), Tc, CN.grad().data());
}

void treeLstmBackwardC(Node &N) {
  Node &WxN = *N.Parents[0];
  Node &BxN = *N.Parents[1];
  Node &WhN = *N.Parents[2];
  Node &XN = *N.Parents[3];
  Node &HSumN = *N.Parents[4];
  size_t K = N.IScalar;
  size_t H = N.Value.size();
  size_t In = XN.Value.size();
  const float *Cg = N.Grad.data();
  const float *Ai = N.AuxM, *Ao = N.AuxM + H, *Au = N.AuxM + 2 * H,
              *F = N.AuxM + 3 * H, *DO = N.AuxM + (4 + K) * H;

  // Per-child forget-gate blocks, last child first (descending
  // creation order); the add chain hands every f_k ⊙ c_k term the full
  // incoming grad.
  for (size_t KI = K; KI-- > 0;) {
    Node &ChildHN = *N.Parents[5 + KI];
    Node &ChildCN = *N.Parents[5 + K + KI];
    const float *Fk = F + KI * H;
    Tensor FKG = Tensor::zeros(H); // f_k's grad: Cg ⊙ c_k
    kernels::mulAcc(H, Cg, ChildCN.Value.data(), FKG.data());
    if (ChildCN.RequiresGrad)
      kernels::mulAcc(H, Cg, Fk, ChildCN.grad().data());
    Tensor PF = Tensor::zeros(H);
    kernels::sigmoidGradAcc(H, FKG.data(), Fk, PF.data());
    gateBackward(WxN, BxN, WhN, XN, ChildHN, 3 * H, H, In, PF.data());
  }

  // c0 = mul(i, u), then gates u, o, i (descending creation order;
  // pack order is i, o, u, f).
  Tensor IGr = Tensor::zeros(H);
  kernels::mulAcc(H, Cg, Au, IGr.data());
  Tensor UG = Tensor::zeros(H);
  kernels::mulAcc(H, Cg, Ai, UG.data());
  Tensor PG = Tensor::zeros(H);
  kernels::tanhGradAcc(H, UG.data(), Au, PG.data());
  gateBackward(WxN, BxN, WhN, XN, HSumN, 2 * H, H, In, PG.data());
  PG.zero();
  kernels::sigmoidGradAcc(H, DO, Ao, PG.data());
  gateBackward(WxN, BxN, WhN, XN, HSumN, H, H, In, PG.data());
  PG.zero();
  kernels::sigmoidGradAcc(H, IGr.data(), Ai, PG.data());
  gateBackward(WxN, BxN, WhN, XN, HSumN, 0, H, In, PG.data());
}

} // namespace

namespace {

/// Returns a contiguous [B x Dim] value block for \p Vars — the matmul
/// right-hand side. When every value already sits Dim apart in one
/// buffer (zero-copy row views of the previous batch node, the steady
/// lockstep state), that storage is used directly; otherwise the
/// values are copied into \p Scratch.
const float *stackedValues(ArrayRef<Var> Vars, size_t Dim,
                           Tensor &Scratch) {
  const float *Base = Vars[0]->Value.data();
  bool Contiguous = true;
  for (size_t I = 0; I < Vars.size(); ++I) {
    LIGER_CHECK(Vars[I]->Value.size() == Dim,
                "batch op inputs must share shape");
    Contiguous = Contiguous && Vars[I]->Value.data() == Base + I * Dim;
  }
  if (Contiguous)
    return Base;
  Scratch = Tensor::raw(Vars.size(), Dim);
  for (size_t I = 0; I < Vars.size(); ++I)
    std::memcpy(Scratch.data() + I * Dim, Vars[I]->Value.data(),
                Dim * sizeof(float));
  return Scratch.data();
}

/// The value of a B-lane batch node: [B x Dim], or a plain [Dim] vector
/// for one lane, whose node is then that lane's output itself.
Tensor laneValues(size_t B, size_t Dim) {
  return B == 1 ? Tensor::raw(Dim) : Tensor::raw(B, Dim);
}

/// Lane \p Bi's output of a B-lane batch node: the node itself for one
/// lane, so a one-lane call builds exactly one node, and a zero-copy
/// row view for more.
Var laneOutput(Node *N, size_t B, size_t Bi) {
  return B == 1 ? N : row(N, Bi);
}

} // namespace

std::vector<Var> liger::gruCellBatchOp(const Var &Wx, const Var &Bx,
                                       const Var &Wh, ArrayRef<Var> Xs,
                                       ArrayRef<Var> HPrevs) {
  size_t B = Xs.size();
  LIGER_CHECK(B > 0 && HPrevs.size() == B,
              "gruCellBatchOp needs matching non-empty input/state sets");
  size_t H = HPrevs[0]->Value.size();
  size_t In = Xs[0]->Value.size();
  LIGER_CHECK(Wx->Value.rank() == 2 && Wx->Value.dim(0) == 3 * H &&
                  Wx->Value.dim(1) == In,
              "gruCellBatchOp packed Wx shape mismatch");
  LIGER_CHECK(Bx->Value.size() == 3 * H,
              "gruCellBatchOp packed bias mismatch");
  LIGER_CHECK(Wh->Value.rank() == 2 && Wh->Value.dim(0) == 3 * H &&
                  Wh->Value.dim(1) == H,
              "gruCellBatchOp packed Wh shape mismatch");

  // The forward math lives in inferops::gruCellForward, shared
  // verbatim with the no-graph inference runtime (which runs it with
  // one lane); this op only adds the payload, node, and backward
  // wiring.
  float *Gates = allocCellPayload(B * 3 * H);
  Tensor XScratch, HScratch;
  const float *XBufV = stackedValues(Xs, In, XScratch);
  const float *HBufV = stackedValues(HPrevs, H, HScratch);
  Tensor Ws = Tensor::raw((7 * B + 2) * H);
  Tensor Out = laneValues(B, H);
  inferops::gruCellForward(B, H, In, Wx->Value.data(), Bx->Value.data(),
                           Wh->Value.data(), XBufV, HBufV, Gates, Out.data(),
                           Ws.data());

  // Parents Wx, Bx, Wh, X_0..X_{B-1}, H_0..H_{B-1}.
  Node *N = newNodeWithParents(std::move(Out), 3 + 2 * B);
  Node **P = N->Parents;
  *P++ = Wx;
  *P++ = Bx;
  *P++ = Wh;
  std::copy(HPrevs.begin(), HPrevs.end(), std::copy(Xs.begin(), Xs.end(), P));
  finishNode(N, gruCellBatchBackward);
  N->AuxM = Gates;
  N->IScalar = B;
  std::vector<Var> Outs(B);
  for (size_t Bi = 0; Bi < B; ++Bi)
    Outs[Bi] = laneOutput(N, B, Bi);
  return Outs;
}

CellOut liger::treeLstmNodeOp(const Var &Wx, const Var &Bx, const Var &Wh,
                              const Var &X, const Var &HSum,
                              const std::vector<Var> &ChildH,
                              const std::vector<Var> &ChildC) {
  size_t K = ChildH.size();
  LIGER_CHECK(ChildC.size() == K, "treeLstmNodeOp child state mismatch");
  size_t H = HSum->Value.dim(0);
  size_t In = X->Value.dim(0);
  LIGER_CHECK(Wx->Value.rank() == 2 && Wx->Value.dim(0) == 4 * H &&
                  Wx->Value.dim(1) == In,
              "treeLstmNodeOp packed Wx shape mismatch");
  LIGER_CHECK(Bx->Value.size() == 4 * H,
              "treeLstmNodeOp packed bias mismatch");
  LIGER_CHECK(Wh->Value.rank() == 2 && Wh->Value.dim(0) == 4 * H &&
                  Wh->Value.dim(1) == H,
              "treeLstmNodeOp packed Wh shape mismatch");

  // Forward math shared with the inference runtime via
  // inferops::treeLstmNodeForward (which also zeroes the payload's
  // dO-scratch block); this op adds the two-node backward wiring.
  std::vector<const float *> ChildHV(K), ChildCV(K);
  for (size_t KI = 0; KI < K; ++KI) {
    LIGER_CHECK(ChildH[KI]->Value.size() == H &&
                    ChildC[KI]->Value.size() == H,
                "treeLstmNodeOp child shape mismatch");
    ChildHV[KI] = ChildH[KI]->Value.data();
    ChildCV[KI] = ChildC[KI]->Value.data();
  }
  float *Pay = allocCellPayload((5 + K) * H);
  Tensor Ws = Tensor::raw(10 * H);
  Tensor C = Tensor::raw(H);
  Tensor HOut = Tensor::raw(H);
  inferops::treeLstmNodeForward(H, In, K, Wx->Value.data(), Bx->Value.data(),
                                Wh->Value.data(), X->Value.data(),
                                HSum->Value.data(), ChildHV.data(),
                                ChildCV.data(), Pay, C.data(), HOut.data(),
                                Ws.data());

  std::vector<Var> Parents;
  Parents.reserve(5 + 2 * K);
  Parents.push_back(Wx);
  Parents.push_back(Bx);
  Parents.push_back(Wh);
  Parents.push_back(X);
  Parents.push_back(HSum);
  for (const Var &Hk : ChildH)
    Parents.push_back(Hk);
  for (const Var &Ck : ChildC)
    Parents.push_back(Ck);
  Node *CN = makeNode(std::move(C), Parents, treeLstmBackwardC);
  CN->AuxM = Pay;
  CN->IScalar = K;
  Node *HN = makeNode(std::move(HOut), {CN}, treeLstmBackwardH);
  HN->AuxM = Pay;
  HN->IScalar = K;
  CellOut Result;
  Result.H = HN;
  Result.C = CN;
  return Result;
}

//===----------------------------------------------------------------------===//
// Fused attention ops
//===----------------------------------------------------------------------===//
//
// Two node kinds cover a whole attended decode. The KeyProj node
// computes the key-side half of every score's first layer once per
// memory ([T x Hidden]; keys are constant across decoder steps). Each
// step then adds one attention node for all its queries, fusing the
// broadcast query projection → tanh → second-layer matvec → softmax →
// weighted context sum, the same 1-node-per-step discipline as the
// fused cells above; one query gets that node itself as its context.
//
// Both backwards replay the per-pair reference graph (colsView / matvec
// / add / tanhV / stackScalars / softmax / weightedCombine, see
// tests/ReferenceGraphs.cpp) node by node in descending creation order
// through the same kernels, so losses and gradients are
// bitwise-identical to the per-pair path
// (AttentionEquivalenceTest pins this). The W1 halves are addressed as
// column bands of the packed [Hidden x (KeyDim+QueryDim)] parameter —
// strided matvecs forward, fresh-zeroed staging blocks scattered with
// addAcc2d backward, matching the reference's colsView copy + scatter.
//
// KeyProj-node parents: W1, B1, Key_0..Key_{T-1}; created before any
// step node, its backward runs after every step's — exactly where the
// reference's shared per-key projection nodes sit in the schedule.
//===----------------------------------------------------------------------===//

namespace {

void attentionKeyProjBackward(Node &N) {
  Node &W1N = *N.Parents[0];
  Node &B1N = *N.Parents[1];
  size_t T = N.NumParents - 2;
  size_t H = N.Value.dim(1);
  size_t K = N.Parents[2]->Value.size();
  size_t W1Cols = W1N.Value.dim(1);
  const float *G = N.Grad.data();
  const float *W1V = W1N.Value.data();

  // Per-key chains, last key first (descending creation order): the
  // add hands b1 its row grad, then the matvec splits between the
  // key-side weight band (staged, like the reference's colsView copy)
  // and the key itself. The keys' grads run key by key; b1 and the
  // stage take their per-key chains through the descending-lane batch
  // kernels, whose element chains are the key loop's.
  std::vector<const float *> KeyV(T);
  for (size_t TI = T; TI-- > 0;) {
    Node &KeyN = *N.Parents[2 + TI];
    KeyV[TI] = KeyN.Value.data();
    if (KeyN.RequiresGrad)
      kernels::matvecTAccStrided(H, K, W1Cols, W1V, G + TI * H,
                                 KeyN.grad().data());
  }
  if (B1N.RequiresGrad)
    kernels::addAccBatchDesc(T, H, G, H, B1N.grad().data());
  if (W1N.RequiresGrad) {
    Tensor WkStage = Tensor::zeros(H, K);
    kernels::rank1AccBatchDesc(T, H, K, G, H, KeyV.data(), WkStage.data());
    kernels::addAcc2d(H, K, WkStage.data(), K, W1N.grad().data(), W1Cols);
  }
}

/// One query's attention backward over its key memory: one replay step
/// of the multi-memory node (KeyParents points at that query's Key_0..
/// span, Ht and A at its payload slice).
void attentionBackwardOne(Node &W1N, Node &W2N, Node &B2N, Node &QN,
                          Node &KPN, Node *const *KeyParents, size_t T,
                          size_t K, size_t H, size_t Q, const float *G,
                          const float *Ht, const float *A) {
  size_t W1Cols = W1N.Value.dim(1);
  const float *W1V = W1N.Value.data(), *W2V = W2N.Value.data();

  // context = weightedCombine(keys, a): keys ascending, each taking
  // a_t-scaled context grad; the weight grads are per-key dots.
  Tensor AG = Tensor::zeros(T);
  for (size_t TI = 0; TI < T; ++TI) {
    Node &KeyN = *KeyParents[TI];
    if (KeyN.RequiresGrad)
      kernels::axpy(K, A[TI], G, KeyN.grad().data());
    AG[TI] += kernels::dot(K, G, KeyN.Value.data());
  }

  // a = softmax(s), s = stackScalars(s_0..s_{T-1}).
  Tensor SvG = Tensor::zeros(T);
  kernels::softmaxGradAcc(T, AG.data(), A, SvG.data());

  // Per-key score chains, last key first: s_t = (W2 · h_t) + b2,
  // h_t = tanh(KeyProj[t] + Mq).
  Tensor HG = Tensor::zeros(H);
  Tensor PreG = Tensor::zeros(H);
  Tensor MqG = Tensor::zeros(H);
  float *KPG = KPN.RequiresGrad ? KPN.grad().data() : nullptr;
  for (size_t TI = T; TI-- > 0;) {
    float Gt = SvG[TI];
    const float *HtRow = Ht + TI * H;
    if (B2N.RequiresGrad)
      B2N.grad()[0] += Gt;
    if (W2N.RequiresGrad)
      kernels::axpy(H, Gt, HtRow, W2N.grad().data());
    HG.zero();
    kernels::axpy(H, Gt, W2V, HG.data());
    PreG.zero();
    kernels::tanhGradAcc(H, HG.data(), HtRow, PreG.data());
    if (KPG)
      kernels::addAcc(H, PreG.data(), KPG + TI * H);
    kernels::addAcc(H, PreG.data(), MqG.data());
  }

  // Mq = matvec(Wq, q) through the query-side band of W1: weight grad
  // staged (the reference's colsView node), query grad strided.
  Tensor WqStage = Tensor::zeros(H, Q);
  kernels::rank1Acc(H, Q, MqG.data(), QN.Value.data(), WqStage.data());
  if (QN.RequiresGrad)
    kernels::matvecTAccStrided(H, Q, W1Cols, W1V + K, MqG.data(),
                               QN.grad().data());
  if (W1N.RequiresGrad)
    kernels::addAcc2d(H, Q, WqStage.data(), Q, W1N.grad().data() + K,
                      W1Cols);
}

} // namespace

Var liger::attentionKeyProj(const Var &W1, const Var &B1,
                            const std::vector<Var> &Keys) {
  LIGER_CHECK(!Keys.empty(), "attentionKeyProj needs keys");
  size_t H = B1->Value.size();
  size_t K = Keys[0]->Value.size();
  size_t W1Cols = W1->Value.dim(1);
  LIGER_CHECK(W1->Value.rank() == 2 && W1->Value.dim(0) == H &&
                  W1Cols >= K,
              "attentionKeyProj packed W1 shape mismatch");

  size_t T = Keys.size();
  std::vector<const float *> KeyV(T);
  for (size_t TI = 0; TI < T; ++TI) {
    LIGER_CHECK(Keys[TI]->Value.size() == K,
                "attentionKeyProj keys must share shape");
    KeyV[TI] = Keys[TI]->Value.data();
  }
  // Forward math shared with the inference runtime.
  Tensor Out = Tensor::zeros(T, H);
  inferops::attentionKeyProjForward(T, H, K, W1Cols, W1->Value.data(),
                                    B1->Value.data(), KeyV.data(),
                                    Out.data());

  std::vector<Var> Parents;
  Parents.reserve(2 + T);
  Parents.push_back(W1);
  Parents.push_back(B1);
  for (const Var &Key : Keys)
    Parents.push_back(Key);
  return makeNode(std::move(Out), Parents, attentionKeyProjBackward);
}

//===----------------------------------------------------------------------===//
// Multi-memory attention
//===----------------------------------------------------------------------===//

namespace {

/// Multi-memory node: parents W1, W2, B2, Query_0..Query_{Qn-1}, then
/// per query its KeyProj followed by its Key_0..Key_{T_q-1}; AuxIdx
/// holds the per-query key counts, AuxM per-query slices of
/// (T_q*Hidden + T_q). Queries replay in descending order, each with
/// its own memory — where one-query nodes created in query order sit
/// in the newest-first tape walk — so a query's gradients and the
/// shared-parameter accumulation do not depend on how many queries
/// share the node.
void attentionMultiMemoryBackward(Node &N) {
  size_t Qn = N.IScalar;
  size_t K = N.Value.size() / Qn;
  size_t H = N.Parents[0]->Value.dim(0);
  const size_t *Ts = N.AuxIdx;
  const float *G = N.Grad.data();
  // Walk the queries' parent spans and payload slices from the end.
  size_t POff = N.NumParents, SOff = 0;
  for (size_t Qi = 0; Qi < Qn; ++Qi)
    SOff += Ts[Qi] * H + Ts[Qi];
  for (size_t Qi = Qn; Qi-- > 0;) {
    size_t T = Ts[Qi];
    POff -= 1 + T;
    SOff -= T * H + T;
    const float *Slice = N.AuxM + SOff;
    attentionBackwardOne(*N.Parents[0], *N.Parents[1], *N.Parents[2],
                         *N.Parents[3 + Qi], *N.Parents[POff],
                         N.Parents + POff + 1, T, K, H,
                         N.Parents[3 + Qi]->Value.size(), G + Qi * K,
                         Slice, Slice + T * H);
  }
}

} // namespace

std::vector<AttnOut> liger::attentionMultiMemoryOp(
    const Var &W1, const Var &W2, const Var &B2, ArrayRef<Var> Queries,
    ArrayRef<const AttnMemory *> Mems) {
  size_t Qn = Queries.size();
  LIGER_CHECK(Qn > 0 && Mems.size() == Qn,
              "attentionMultiMemoryOp needs one memory per query");
  size_t Q = Queries[0]->Value.size();
  size_t H = W1->Value.dim(0);
  size_t W1Cols = W1->Value.dim(1);
  LIGER_CHECK(!Mems[0]->Keys.empty(),
              "attentionMultiMemoryOp needs non-empty memories");
  size_t K = Mems[0]->Keys[0]->Value.size();
  LIGER_CHECK(W1->Value.rank() == 2 && W1Cols == K + Q,
              "attentionMultiMemoryOp packed W1 shape mismatch");
  LIGER_CHECK(W2->Value.rank() == 2 && W2->Value.dim(0) == 1 &&
                  W2->Value.dim(1) == H,
              "attentionMultiMemoryOp W2 shape mismatch");
  LIGER_CHECK(B2->Value.size() == 1,
              "attentionMultiMemoryOp B2 shape mismatch");

  // Per query its key count, payload slice (T*H tanh activations, T
  // weights) and parents (its KeyProj, then its keys).
  size_t *Ts = GraphArena::current().allocArray<size_t>(Qn);
  size_t PayTotal = 0, KeyTotal = 0;
  for (size_t Qi = 0; Qi < Qn; ++Qi) {
    const AttnMemory &Mem = *Mems[Qi];
    size_t T = Mem.Keys.size();
    LIGER_CHECK(T > 0, "attentionMultiMemoryOp needs non-empty memories");
    LIGER_CHECK(Queries[Qi]->Value.size() == Q,
                "attentionMultiMemoryOp queries must share shape");
    LIGER_CHECK(Mem.KeyProj->Value.rank() == 2 &&
                    Mem.KeyProj->Value.dim(0) == T &&
                    Mem.KeyProj->Value.dim(1) == H,
                "attentionMultiMemoryOp key projection mismatch");
    Ts[Qi] = T;
    PayTotal += T * H + T;
    KeyTotal += T;
  }
  Node *N = newNodeWithParents(Tensor(), 3 + 2 * Qn + KeyTotal);
  Node **P = N->Parents;
  *P++ = W1;
  *P++ = W2;
  *P++ = B2;
  P = std::copy(Queries.begin(), Queries.end(), P);
  // Value pointers for the forward: the Qn key projections, then every
  // query's keys back to back.
  std::vector<const float *> Ptrs(Qn + KeyTotal);
  const float **KPV = Ptrs.data(), **KeyV = KPV + Qn;
  for (size_t Qi = 0; Qi < Qn; ++Qi) {
    const AttnMemory &Mem = *Mems[Qi];
    *P++ = Mem.KeyProj;
    KPV[Qi] = Mem.KeyProj->Value.data();
    for (const Var &Key : Mem.Keys) {
      LIGER_CHECK(Key->Value.size() == K,
                  "attentionMultiMemoryOp keys must share shape");
      *P++ = Key;
      *KeyV++ = Key->Value.data();
    }
  }

  // The forward math (every query's broadcast projection in one matmul
  // over the shared query-side band of W1, then each query's walk over
  // its own memory) is shared with the inference runtime, which runs
  // it with one query; Ht and the weights land in the payload.
  float *Pay = allocCellPayload(PayTotal);
  Tensor QScratch;
  const float *QBufV = stackedValues(Queries, Q, QScratch);
  Tensor Ws = Tensor::raw((Qn + 1) * H);
  N->Value = laneValues(Qn, K);
  inferops::attentionForward(Qn, Ts, K, Q, H, W1Cols, W1->Value.data(),
                             W2->Value.data(), B2->Value[0], QBufV, KPV,
                             Ptrs.data() + Qn, Pay, N->Value.data(),
                             Ws.data());

  finishNode(N, attentionMultiMemoryBackward);
  N->AuxM = Pay;
  N->AuxIdx = Ts;
  N->IScalar = Qn;
  std::vector<AttnOut> Results(Qn);
  for (size_t Qi = 0; Qi < Qn; ++Qi) {
    Results[Qi].Context = laneOutput(N, Qn, Qi);
    Results[Qi].Weights = Pay + Ts[Qi] * H;
    Pay += Ts[Qi] * H + Ts[Qi];
  }
  return Results;
}

//===----------------------------------------------------------------------===//
// Batched loss head
//===----------------------------------------------------------------------===//

namespace {

/// Batched loss-head node: parents W, Bias, X_0..X_{B-1}; value the B
/// per-lane losses ([B x 1], or [1] for one lane), AuxF the B*V softmax
/// probabilities, AuxIdx the B targets. Lanes replay in descending
/// order — where the ascending-created per-lane matvec/add/CE chains
/// sit in the newest-first tape walk. Each lane's fused CE grad lands
/// in a fresh logits-grad row that feeds the lane's input grad inline
/// (the per-lane rows are disjoint, so reordering them against the
/// shared regions is bitwise-neutral); the shared bias and weight
/// regions then accumulate through the *BatchDesc kernels, which are
/// bitwise-identical to descending per-lane addAcc / rank1Acc calls.
void softmaxCrossEntropyBatchBackward(Node &N) {
  size_t B = N.IScalar;
  Node &WN = *N.Parents[0];
  Node &BN = *N.Parents[1];
  size_t V = WN.Value.dim(0), In = WN.Value.dim(1);
  const float *G = N.Grad.data();
  const float *Probs = N.AuxF;
  const size_t *Targets = N.AuxIdx;
  Tensor LG = Tensor::zeros(B, V);
  std::vector<const float *> XV(B);
  for (size_t Bi = B; Bi-- > 0;) {
    float Gb = G[Bi];
    float *__restrict LGRow = LG.data() + Bi * V;
    const float *__restrict PRow = Probs + Bi * V;
    for (size_t I = 0; I < V; ++I)
      LGRow[I] += Gb * PRow[I];
    LGRow[Targets[Bi]] -= Gb;
    Node &XN = *N.Parents[2 + Bi];
    XV[Bi] = XN.Value.data();
    if (XN.RequiresGrad)
      kernels::matvecTAcc(V, In, WN.Value.data(), LGRow,
                          XN.grad().data());
  }
  if (BN.RequiresGrad)
    kernels::addAccBatchDesc(B, V, LG.data(), V, BN.grad().data());
  if (WN.RequiresGrad)
    kernels::rank1AccBatchDesc(B, V, In, LG.data(), V, XV.data(),
                               WN.grad().data());
}

} // namespace

std::vector<Var> liger::softmaxCrossEntropyBatchOp(const Var &W,
                                                   const Var &Bias,
                                                   ArrayRef<Var> Xs,
                                                   ArrayRef<size_t> Targets) {
  size_t B = Xs.size();
  LIGER_CHECK(B > 0 && Targets.size() == B,
              "softmaxCrossEntropyBatchOp needs one target per lane");
  LIGER_CHECK(W->Value.rank() == 2,
              "softmaxCrossEntropyBatchOp expects a weight matrix");
  size_t V = W->Value.dim(0), In = W->Value.dim(1);
  LIGER_CHECK(Bias->Value.size() == V,
              "softmaxCrossEntropyBatchOp bias mismatch");

  // Every lane's logits through the linear forward the inference
  // runtime shares (one matmul, each row bitwise the per-lane matvec,
  // then the bias add), then the same stable softmax-NLL as the
  // single-vector softmaxCrossEntropy op.
  Tensor XScratch;
  const float *XBufV = stackedValues(Xs, In, XScratch);
  Tensor Logits = Tensor::raw(B, V);
  inferops::linearForward(B, V, In, W->Value.data(), Bias->Value.data(),
                          XBufV, Logits.data());

  size_t *TargetsA = GraphArena::current().allocArray<size_t>(B);
  float *ProbsA = GraphArena::current().allocArray<float>(B * V);
  Tensor Out = laneValues(B, 1);
  for (size_t Bi = 0; Bi < B; ++Bi) {
    LIGER_CHECK(Targets[Bi] < V, "target out of range");
    float *Probs = ProbsA + Bi * V;
    inferops::softmaxRow(V, Logits.data() + Bi * V, Probs);
    Out[Bi] = -std::log(std::max(Probs[Targets[Bi]], 1e-12f));
    TargetsA[Bi] = Targets[Bi];
  }

  // Parents W, Bias, X_0..X_{B-1}.
  Node *N = newNodeWithParents(std::move(Out), 2 + B);
  N->Parents[0] = W;
  N->Parents[1] = Bias;
  std::copy(Xs.begin(), Xs.end(), N->Parents + 2);
  finishNode(N, softmaxCrossEntropyBatchBackward);
  N->AuxF = ProbsA;
  N->AuxIdx = TargetsA;
  N->IScalar = B;
  std::vector<Var> Losses(B);
  for (size_t Bi = 0; Bi < B; ++Bi)
    Losses[Bi] = laneOutput(N, B, Bi);
  return Losses;
}

//===----------------------------------------------------------------------===//
// Backward driver
//===----------------------------------------------------------------------===//

namespace {

void runBackward(const Var &Loss) {
  LIGER_CHECK(Loss->Value.size() == 1, "backward starts from a scalar");
  if (!Loss->RequiresGrad)
    return;
  // Stamp the reachable non-leaf nodes, pruning subtrees with no
  // trainable ancestors (RequiresGrad propagates upward at
  // construction). Leaves are never written: parameter nodes are shared
  // with passes running on other threads.
  uint64_t Pass = NextPass.fetch_add(1, std::memory_order_relaxed);
  size_t Marked = 0;
  std::vector<Node *> Stack{Loss};
  while (!Stack.empty()) {
    Node *N = Stack.back();
    Stack.pop_back();
    if (!N->BackwardFn || N->Mark == Pass)
      continue;
    N->Mark = Pass;
    ++Marked;
    for (uint32_t I = 0; I < N->NumParents; ++I)
      if (N->Parents[I]->RequiresGrad)
        Stack.push_back(N->Parents[I]);
  }
  // Walk the arena's tape newest first, so every consumer runs before
  // its producers, and stop once every stamped node has been seen.
  // Unstamped nodes belong to other graphs of the same arena
  // generation and keep whatever gradients they hold.
  Loss->grad()[0] += 1.0f;
  GraphArena &Arena = GraphArena::current();
  size_t Seen = 0;
  for (size_t I = Arena.numLive(); I-- > 0 && Seen < Marked;) {
    Node *N = Arena.node(I);
    if (N->Mark != Pass)
      continue;
    ++Seen;
    if (!N->Grad.empty())
      N->BackwardFn(*N);
  }
  LIGER_CHECK(Seen == Marked,
              "backward reached a graph node outside the current GraphArena");
}

} // namespace

void liger::backward(const Var &Loss) { runBackward(Loss); }

void liger::backward(const Var &Loss, GradSink &Sink) {
  GradSink *Prev = ActiveSink;
  ActiveSink = &Sink;
  runBackward(Loss);
  ActiveSink = Prev;
}

std::vector<float> liger::softmaxValues(const Tensor &Logits) {
  std::vector<float> Out(Logits.size());
  const float *L = Logits.data();
  float MaxV = L[0];
  for (size_t I = 1; I < Logits.size(); ++I)
    MaxV = std::max(MaxV, L[I]);
  for (size_t I = 0; I < Logits.size(); ++I)
    Out[I] = std::exp(L[I] - MaxV);
  // 4-partial-accumulator reduction: shorter error chain than a single
  // running sum over wide vocabularies.
  float Sum = kernels::sum(Out.size(), Out.data());
  for (float &V : Out)
    V /= Sum;
  return Out;
}

size_t liger::argmax(const Tensor &Logits) {
  LIGER_CHECK(Logits.size() > 0, "argmax of empty tensor");
  size_t Best = 0;
  for (size_t I = 1; I < Logits.size(); ++I)
    if (Logits[I] > Logits[Best])
      Best = I;
  return Best;
}
