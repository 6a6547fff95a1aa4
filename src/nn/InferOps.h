//===-- nn/InferOps.h - Shared forward-only op implementations --*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The forward computations of the fused graph ops (gruCellBatchOp,
/// treeLstmNodeOp, attentionKeyProj, attentionMultiMemoryOp and the
/// logits of softmaxCrossEntropyBatchOp), factored into free functions
/// over raw float pointers so the autodiff graph builders in Graph.cpp
/// and the no-graph inference runtime (models/Inference.h) execute the
/// *same code*. The GRU, attention and linear forwards take a lane
/// count: the graph ops pass their B lanes, the inference runtime one.
/// Every product over lanes is a matmul whose rows are bitwise the
/// one-lane matvec, so a lane's values never depend on B. Bitwise
/// equality between the training forward pass and the inference path
/// is then a property of the build, not a hoped-for coincidence — the
/// pinned InferenceEquivalenceTest suite would catch any drift.
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

/// Softmax over \p N logits into \p Out, which may be \p Logits
/// itself. Identical arithmetic to liger::softmaxValues: running max,
/// exp of shifted logits, kernels::sum's 4-partial reduction, divide.
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

/// Affine map of \p B lanes: row b of \p Out ([B x Rows]) is
/// W x_b + Bias for the [Rows x Cols] weight W and X ([B x Cols]). One
/// matmul serves every lane, each row bitwise the one-lane matvec, so a
/// lane's logits do not depend on B.
inline void linearForward(size_t B, size_t Rows, size_t Cols, const float *W,
                          const float *Bias, const float *X, float *Out) {
  kernels::matmul(B, Rows, Cols, W, Cols, X, Cols, Out, Rows);
  for (size_t Bi = 0; Bi < B; ++Bi)
    kernels::addAcc(Rows, Bias, Out + Bi * Rows);
}

/// GRU cell step h' = n + z (h - n) for \p B lanes through the packed
/// gate weights: X is [B x In], HPrev [B x H] and Out [B x H]. Each
/// packed block is one matmul over every lane (each row bitwise the
/// one-lane matvec), so a lane's values do not depend on B. Gates is
/// the B stacked 3H backward payloads (z, r, n post-activations); Ws
/// needs (7B + 2)H floats of workspace.
inline void gruCellForward(size_t B, size_t H, size_t In, const float *Wx,
                           const float *Bx, const float *Wh, const float *X,
                           const float *HPrev, float *Gates, float *Out,
                           float *Ws) {
  float *Pre = Ws;              // [B x 3H] gate pre-activations
  float *Hzr = Pre + 3 * B * H; // [B x 2H] hidden-side z/r projections
  float *RH = Hzr + 2 * B * H;  // [B x H]: r (.) h
  float *Un = RH + B * H;       // [B x H]: Wh_n (r (.) h)
  float *Dp = Un + B * H;       // H: h - n
  float *ZDp = Dp + H;          // H: z (.) (h - n)

  // All x-side pre-activations, then the hidden-side projections: z
  // and r rows see h, the n rows see r (.) h.
  kernels::matmul(B, 3 * H, In, Wx, In, X, In, Pre, 3 * H);
  kernels::matmul(B, 2 * H, H, Wh, H, HPrev, H, Hzr, 2 * H);
  for (size_t Bi = 0; Bi < B; ++Bi) {
    float *P = Pre + Bi * 3 * H;
    float *G = Gates + Bi * 3 * H;
    const float *HV = HPrev + Bi * H;
    kernels::addAcc(3 * H, Bx, P);
    kernels::addAcc(2 * H, Hzr + Bi * 2 * H, P);
    kernels::sigmoidMap(H, P, G);
    kernels::sigmoidMap(H, P + H, G + H);
    float *__restrict RHp = RH + Bi * H;
    for (size_t I = 0; I < H; ++I)
      RHp[I] = G[H + I] * HV[I];
  }
  kernels::matmul(B, H, H, Wh + 2 * H * H, H, RH, H, Un, H);

  // h' = n + z (.) (h - n), one float op per loop (see the determinism
  // notes in Graph.cpp).
  for (size_t Bi = 0; Bi < B; ++Bi) {
    float *P = Pre + Bi * 3 * H;
    float *G = Gates + Bi * 3 * H;
    const float *Z = G, *Nn = G + 2 * H;
    const float *HV = HPrev + Bi * H;
    kernels::addAcc(H, Un + Bi * H, P + 2 * H);
    kernels::tanhMap(H, P + 2 * H, G + 2 * H);
    for (size_t I = 0; I < H; ++I)
      Dp[I] = HV[I] - Nn[I];
    for (size_t I = 0; I < H; ++I)
      ZDp[I] = Z[I] * Dp[I];
    float *__restrict O = Out + Bi * H;
    for (size_t I = 0; I < H; ++I)
      O[I] = Nn[I] + ZDp[I];
  }
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

/// Attended contexts of \p B queries, query b over its own memory of
/// Ts[b] keys: scores s_t = W2 tanh(KeyProj_b[t] + W1_q q_b) + B2,
/// softmax weights a, and context = sum_t a_t key_t into row b of
/// \p Out ([B x K], overwritten). Queries is [B x Q]; every query-side
/// projection comes from one matmul over W1's query-side column band
/// (each row bitwise the one-query strided matvec), so a query's values
/// do not depend on B. KeyProjs[b] is query b's [Ts[b] x H] key-side
/// projection; Keys holds every query's Ts[b] key pointers back to
/// back. \p Pay receives per query its Ts[b]*H tanh activations then
/// its Ts[b] softmax weights (the backward payload; the scores are
/// computed in the weights' slot). Ws needs (B + 1)H floats.
inline void attentionForward(size_t B, const size_t *Ts, size_t K, size_t Q,
                             size_t H, size_t W1Cols, const float *W1,
                             const float *W2, float B2, const float *Queries,
                             const float *const *KeyProjs,
                             const float *const *Keys, float *Pay, float *Out,
                             float *Ws) {
  float *Mq = Ws;          // [B x H]: query-side projections
  float *Pre = Ws + B * H; // H: per-key pre-activation

  kernels::matmul(B, H, Q, W1 + K, W1Cols, Queries, Q, Mq, H);
  float *__restrict PreV = Pre;
  for (size_t Bi = 0; Bi < B; ++Bi) {
    size_t T = Ts[Bi];
    const float *KP = KeyProjs[Bi];
    const float *__restrict MqV = Mq + Bi * H;
    float *Ht = Pay, *A = Pay + T * H;
    for (size_t TI = 0; TI < T; ++TI) {
      const float *__restrict KPRow = KP + TI * H;
      for (size_t I = 0; I < H; ++I)
        PreV[I] = KPRow[I] + MqV[I];
      float *HtRow = Ht + TI * H;
      kernels::tanhMap(H, PreV, HtRow);
      float S = kernels::dot(H, W2, HtRow);
      A[TI] = S + B2;
    }

    softmaxRow(T, A, A);
    float *OutRow = Out + Bi * K;
    std::memset(OutRow, 0, K * sizeof(float));
    for (size_t TI = 0; TI < T; ++TI)
      kernels::axpy(K, A[TI], Keys[TI], OutRow);
    Keys += T;
    Pay += T * H + T;
  }
}

} // namespace inferops
} // namespace liger

#endif // LIGER_NN_INFEROPS_H
