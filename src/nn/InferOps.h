//===-- nn/InferOps.h - Shared forward-only op implementations --*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The forward computations of the fused graph ops (gruCellOp,
/// treeLstmNodeOp, attentionKeyProj, attentionOp), factored
/// into free functions over raw float pointers so the autodiff graph
/// builders in Graph.cpp and the no-graph inference runtime
/// (models/Inference.h) execute the *same code*. Bitwise equality
/// between the training forward pass and the inference path is then a
/// property of the build, not a hoped-for coincidence — the pinned
/// InferenceEquivalenceTest suite would catch any drift.
///
/// Calling convention: every function writes its outputs through
/// caller-provided buffers and draws temporaries from a caller-provided
/// workspace (documented per function, in floats). Gate buffers match
/// the fused ops' backward payload layouts exactly, so Graph.cpp can
/// pass its AuxM payload straight through. No function allocates.
///
/// Determinism contract (same as Graph.cpp): all reductions funnel
/// through kernels::dot / kernels::sum, every elementwise loop performs
/// one float operation per element over materialized buffers, and the
/// softmax is max-subtract -> exp -> 4-partial sum -> divide.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_NN_INFEROPS_H
#define LIGER_NN_INFEROPS_H

#include "nn/Tensor.h"

#include <cmath>
#include <cstring>

namespace liger {
namespace inferops {

/// Softmax over \p N logits into \p Out (may not alias \p Logits).
/// Identical arithmetic to liger::softmaxValues: running max, exp of
/// shifted logits, kernels::sum's 4-partial reduction, divide.
inline void softmaxRow(size_t N, const float *Logits, float *Out) {
  float MaxV = Logits[0];
  for (size_t I = 1; I < N; ++I)
    MaxV = std::max(MaxV, Logits[I]);
  for (size_t I = 0; I < N; ++I)
    Out[I] = std::exp(Logits[I] - MaxV);
  float Sum = kernels::sum(N, Out);
  for (size_t I = 0; I < N; ++I)
    Out[I] /= Sum;
}

/// First-wins argmax with a strict > comparator (ties keep the lowest
/// index) — the prediction-time contract of liger::argmax.
inline size_t argmaxRow(size_t N, const float *V) {
  size_t Best = 0;
  for (size_t I = 1; I < N; ++I)
    if (V[I] > V[Best])
      Best = I;
  return Best;
}

/// GRU cell step h' = n + z (h - n) through the packed gate weights.
/// Gates is the 3H backward payload (z, r, n post-activations); Ws
/// needs 9H floats of workspace.
inline void gruCellForward(size_t H, size_t In, const float *Wx,
                           const float *Bx, const float *Wh, const float *XV,
                           const float *HV, float *Gates, float *Out,
                           float *Ws) {
  float *Z = Gates, *R = Gates + H, *Nn = Gates + 2 * H;
  float *P = Ws;            // 3H gate pre-activations
  float *Hh = Ws + 3 * H;   // 2H hidden-side z/r projections
  float *RHp = Ws + 5 * H;  // H: r (.) h
  float *Un = Ws + 6 * H;   // H: Wh_n (r (.) h)
  float *Dp = Ws + 7 * H;   // H: h - n
  float *ZDp = Ws + 8 * H;  // H: z (.) (h - n)

  // All x-side pre-activations in one pass, then the hidden-side
  // projections: z and r rows see h, the n rows see r (.) h.
  kernels::matvecN(3, H, In, Wx, XV, P);
  kernels::addAcc(3 * H, Bx, P);
  kernels::matvecN(2, H, H, Wh, HV, Hh);
  kernels::addAcc(2 * H, Hh, P);
  kernels::sigmoidMap(H, P, Z);
  kernels::sigmoidMap(H, P + H, R);

  for (size_t I = 0; I < H; ++I)
    RHp[I] = R[I] * HV[I];
  kernels::matvec(H, H, Wh + 2 * H * H, RHp, Un);
  kernels::addAcc(H, Un, P + 2 * H);
  kernels::tanhMap(H, P + 2 * H, Nn);

  // h' = n + z (.) (h - n), one float op per loop (see the determinism
  // notes in Graph.cpp).
  for (size_t I = 0; I < H; ++I)
    Dp[I] = HV[I] - Nn[I];
  for (size_t I = 0; I < H; ++I)
    ZDp[I] = Z[I] * Dp[I];
  for (size_t I = 0; I < H; ++I)
    Out[I] = Nn[I] + ZDp[I];
}

/// Child-sum TreeLSTM node with \p K children. Gates is the (5+K)H
/// backward payload (i, o, u, f_0..f_{K-1}, tanh(c'), dO-scratch;
/// dO zeroed here); ChildH/ChildC point at the K children's states.
/// Ws needs 10H floats.
inline void treeLstmNodeForward(size_t H, size_t In, size_t K,
                                const float *Wx, const float *Bx,
                                const float *Wh, const float *XV,
                                const float *HSV,
                                const float *const *ChildH,
                                const float *const *ChildC, float *Gates,
                                float *COut, float *HOut, float *Ws) {
  float *Ai = Gates, *Ao = Gates + H, *Au = Gates + 2 * H,
        *F = Gates + 3 * H, *Tc = Gates + (3 + K) * H,
        *DO = Gates + (4 + K) * H;
  std::memset(DO, 0, H * sizeof(float));
  float *P = Ws;             // 4H gate pre-activations
  float *Hs = Ws + 4 * H;    // 3H h~ projections (i/o/u rows)
  float *PreF = Ws + 7 * H;  // H per-child forget pre-activation
  float *Uf = Ws + 8 * H;    // H per-child Wh_f h_k
  float *FCp = Ws + 9 * H;   // H per-child f_k (.) c_k

  // x-side pre-activations for all four gate blocks; h~ projections
  // for the contiguous i/o/u rows.
  kernels::matvecN(4, H, In, Wx, XV, P);
  kernels::addAcc(4 * H, Bx, P);
  kernels::matvecN(3, H, H, Wh, HSV, Hs);
  kernels::addAcc(3 * H, Hs, P);
  kernels::sigmoidMap(H, P, Ai);
  kernels::sigmoidMap(H, P + H, Ao);
  kernels::tanhMap(H, P + 2 * H, Au);

  // c = i (.) u + sum_k f_k (.) c_k with f_k = sigma((Wx_f x + bx_f)
  // + Wh_f h_k).
  for (size_t I = 0; I < H; ++I)
    COut[I] = Ai[I] * Au[I];
  for (size_t KI = 0; KI < K; ++KI) {
    float *Fk = F + KI * H;
    std::memcpy(PreF, P + 3 * H, H * sizeof(float));
    kernels::matvec(H, H, Wh + 3 * H * H, ChildH[KI], Uf);
    kernels::addAcc(H, Uf, PreF);
    kernels::sigmoidMap(H, PreF, Fk);
    const float *CkV = ChildC[KI];
    for (size_t I = 0; I < H; ++I)
      FCp[I] = Fk[I] * CkV[I];
    kernels::addAcc(H, FCp, COut);
  }
  kernels::tanhMap(H, COut, Tc);
  for (size_t I = 0; I < H; ++I)
    HOut[I] = Ao[I] * Tc[I];
}

/// Key-side first-layer projections of the additive attention scorer:
/// row t of Out ([T x H], fully overwritten) is W1[:, :K] Keys[t] + B1
/// through the packed first layer's key-side column band.
inline void attentionKeyProjForward(size_t T, size_t H, size_t K,
                                    size_t W1Cols, const float *W1,
                                    const float *B1,
                                    const float *const *Keys, float *Out) {
  for (size_t TI = 0; TI < T; ++TI) {
    float *Row = Out + TI * H;
    kernels::matvecStrided(H, K, W1Cols, W1, Keys[TI], Row);
    kernels::addAcc(H, B1, Row);
  }
}

/// One attended context: scores s_t = W2 tanh(KeyProj_t + W1_q Query)
/// + B2, softmax into \p A (T floats, the backward payload's weight
/// block), context = sum_t A[t] Keys[t] into \p Out (K floats,
/// overwritten). \p Ht is the T*H tanh-activation payload block. Ws
/// needs 2H + T floats.
inline void attentionForward(size_t T, size_t K, size_t Q, size_t H,
                             size_t W1Cols, const float *W1, const float *W2,
                             float B2, const float *Query, const float *KP,
                             const float *const *Keys, float *Ht, float *A,
                             float *Out, float *Ws) {
  float *Mq = Ws;           // H: broadcast query-side projection
  float *Pre = Ws + H;      // H: per-key pre-activation
  float *Sv = Ws + 2 * H;   // T: raw scores

  kernels::matvecStrided(H, Q, W1Cols, W1 + K, Query, Mq);
  const float *__restrict MqV = Mq;
  float *__restrict PreV = Pre;
  for (size_t TI = 0; TI < T; ++TI) {
    const float *__restrict KPRow = KP + TI * H;
    for (size_t I = 0; I < H; ++I)
      PreV[I] = KPRow[I] + MqV[I];
    float *HtRow = Ht + TI * H;
    kernels::tanhMap(H, PreV, HtRow);
    float S = kernels::dot(H, W2, HtRow);
    Sv[TI] = S + B2;
  }

  softmaxRow(T, Sv, A);
  std::memset(Out, 0, K * sizeof(float));
  for (size_t TI = 0; TI < T; ++TI)
    kernels::axpy(K, A[TI], Keys[TI], Out);
}

} // namespace inferops
} // namespace liger

#endif // LIGER_NN_INFEROPS_H
