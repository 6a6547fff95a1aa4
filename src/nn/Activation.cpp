//===-- nn/Activation.cpp - tanh and sigmoid maps, bitwise equal to libm --===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// kernels::tanhMap and kernels::sigmoidMap, through which every tanh and
// sigmoid of the library runs (the fused cell and attention ops, tanhV,
// sigmoidV and the forward-only runtime). The scalar build calls libm
// per element. The AVX2 build computes, eight lanes at a time, the very
// float that glibc 2.36's scalar tanhf and 1/(1 + expf(-x)) return on
// x86-64, so no model output depends on which build ran it:
//
//  - tanh transliterates fdlibm's tanhf and the expm1f it calls. glibc
//    builds both for baseline x86-64 (SSE2, no FMA), so every product
//    here is pinned with LIGER_BLOCK_CONTRACT before an add consumes it.
//    Every branch is computed and each lane picks its own with masks.
//  - sigmoid keeps 1/(1 + e) in float and computes e = expf(-x) as
//    glibc's FMA variant of expf does; its IFUNC selects that variant on
//    every CPU that can run this build. The algorithm is ARM's
//    optimized-routines expf: a 32-entry 2^(i/32) table and a degree-3
//    polynomial, in double, with the multiply-adds fused exactly where
//    GCC fuses them in that variant. A vector with any lane at
//    |x| >= 88, inf or NaN takes the scalar call instead.
//
// Another libm may round differently; ActivationKernelTest compares the
// kernels against std::tanh and sigmoidScalar and fails on the first
// difference rather than letting outputs drift (DESIGN.md §8).
//
// tanhf and expm1f are derived from fdlibm, converted to float by Ian
// Lance Taylor, Cygnus Support:
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
//
// The expf algorithm, table and polynomial are from ARM's
// optimized-routines (Copyright (c) 2017-2018, Arm Limited; MIT
// license), which glibc imports.
//
//===----------------------------------------------------------------------===//

#include "nn/Tensor.h"

using namespace liger;

#if defined(LIGER_SIMD_AVX2)

namespace {

__m256i splat(uint32_t Bits) { return _mm256_set1_epi32(int32_t(Bits)); }
__m256 splatF(uint32_t Bits) { return _mm256_castsi256_ps(splat(Bits)); }
__m256d splatD(uint64_t Bits) {
  return _mm256_castsi256_pd(_mm256_set1_epi64x(int64_t(Bits)));
}

/// A * B, rounded before any add can use it (no FMA, as in libm's
/// baseline build).
__m256 mul(__m256 A, __m256 B) {
  __m256 P = _mm256_mul_ps(A, B);
  LIGER_BLOCK_CONTRACT(P);
  return P;
}

/// Per lane, \p A where \p Mask is all ones, else \p B.
__m256 select(__m256i Mask, __m256 A, __m256 B) {
  return _mm256_blendv_ps(B, A, _mm256_castsi256_ps(Mask));
}

/// Signed 32-bit lane compares against a constant.
__m256i above(__m256i V, int32_t Bound) {
  return _mm256_cmpgt_epi32(V, _mm256_set1_epi32(Bound));
}
__m256i below(__m256i V, int32_t Bound) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(Bound), V);
}

/// Adds \p K23 (k << 23) to the bit pattern of \p Y: Y * 2^k.
__m256 addExponent(__m256 Y, __m256i K23) {
  return _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(Y), K23));
}

constexpr uint32_t SignBit = 0x80000000;
constexpr uint32_t Ln2Hi = 0x3f317180, Ln2Lo = 0x3717f7d1;
constexpr uint32_t InvLn2 = 0x3fb8aa3b;
constexpr uint32_t Q1 = 0xbd088889, Q2 = 0x3ad00d01, Q3 = 0xb8a670cd,
                   Q4 = 0x36867e54, Q5 = 0xb457edbb;

/// fdlibm expm1f for the arguments tanhf passes it: 2|x| for |x| in
/// [1, 22) and -2|x| for |x| in [2^-55, 1). Those lie in [2, 44) or
/// (-2, 0), so k is 0, -1, -2, -3 or 3..64, and expm1f's k = 1, overflow
/// and |x| >= 27 ln2 branches never run. Lanes outside that domain get
/// values the caller discards.
__m256 expm1ForTanh(__m256 X) {
  const __m256 One = _mm256_set1_ps(1.0f), Half = _mm256_set1_ps(0.5f);
  const __m256i Bits = _mm256_castps_si256(X);
  const __m256 Sign =
      _mm256_castsi256_ps(_mm256_and_si256(Bits, splat(SignBit)));
  const __m256i HX = _mm256_and_si256(Bits, splat(0x7fffffff));

  // Argument reduction, |x| in (0.5 ln2, 1.5 ln2): k = ±1, hi = x ∓ ln2_hi.
  __m256 HiNear = _mm256_sub_ps(X, _mm256_xor_ps(splatF(Ln2Hi), Sign));
  __m256 LoNear = _mm256_xor_ps(splatF(Ln2Lo), Sign);
  __m256i KNear = _mm256_or_si256(_mm256_srai_epi32(Bits, 31), splat(1));
  // Beyond it: k = (int)(invln2 * x ± 0.5), hi = x - k ln2_hi.
  __m256i KFar = _mm256_cvttps_epi32(
      _mm256_add_ps(mul(splatF(InvLn2), X), _mm256_xor_ps(Half, Sign)));
  __m256 T = _mm256_cvtepi32_ps(KFar);
  __m256 HiFar = _mm256_sub_ps(X, mul(T, splatF(Ln2Hi)));
  __m256 LoFar = mul(T, splatF(Ln2Lo));
  __m256i Near = below(HX, 0x3f851592);
  __m256 Hi = select(Near, HiNear, HiFar);
  __m256 Lo = select(Near, LoNear, LoFar);
  __m256i K = _mm256_blendv_epi8(KFar, KNear, Near);
  __m256 R = _mm256_sub_ps(Hi, Lo);
  __m256 C = _mm256_sub_ps(_mm256_sub_ps(Hi, R), Lo);
  // |x| <= 0.5 ln2 is not reduced: k = 0 (and c is unused).
  __m256i Reduced = above(HX, 0x3eb17218);
  R = select(Reduced, R, X);
  K = _mm256_and_si256(K, Reduced);

  // R is now in the primary range.
  __m256 Hfx = mul(Half, R);
  __m256 Hxs = mul(R, Hfx);
  __m256 P = mul(Hxs, splatF(Q5));
  P = mul(Hxs, _mm256_add_ps(splatF(Q4), P));
  P = mul(Hxs, _mm256_add_ps(splatF(Q3), P));
  P = mul(Hxs, _mm256_add_ps(splatF(Q2), P));
  P = mul(Hxs, _mm256_add_ps(splatF(Q1), P));
  __m256 R1 = _mm256_add_ps(One, P);
  T = _mm256_sub_ps(_mm256_set1_ps(3.0f), mul(R1, Hfx));
  __m256 E = mul(Hxs, _mm256_div_ps(_mm256_sub_ps(R1, T),
                                    _mm256_sub_ps(_mm256_set1_ps(6.0f),
                                                  mul(R, T))));
  // k = 0: x - (x e - hxs).
  __m256 Res0 = _mm256_sub_ps(R, _mm256_sub_ps(mul(R, E), Hxs));

  E = _mm256_sub_ps(_mm256_sub_ps(mul(R, _mm256_sub_ps(E, C)), C), Hxs);
  __m256i K23 = _mm256_slli_epi32(K, 23);
  // k = -1: 0.5 (x - e) - 0.5.
  __m256 ResMinus1 = _mm256_sub_ps(mul(Half, _mm256_sub_ps(R, E)), Half);
  // k <= -2 or k > 56: 2^k (1 - (e - x)) - 1.
  __m256 ResFar = _mm256_sub_ps(
      addExponent(_mm256_sub_ps(One, _mm256_sub_ps(E, R)), K23), One);
  // 2 <= k <= 22: 2^k ((1 - 2^-k) - (e - x)).
  __m256 OneMinus = _mm256_castsi256_ps(_mm256_sub_epi32(
      splat(0x3f800000), _mm256_srlv_epi32(splat(0x1000000), K)));
  __m256 ResLow =
      addExponent(_mm256_sub_ps(OneMinus, _mm256_sub_ps(E, R)), K23);
  // 23 <= k <= 56: 2^k ((x - (e + 2^-k)) + 1).
  __m256 Tiny = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_sub_epi32(splat(0x7f), K), 23));
  __m256 ResHigh = addExponent(
      _mm256_add_ps(_mm256_sub_ps(R, _mm256_add_ps(E, Tiny)), One), K23);

  __m256 Res = select(below(K, 23), ResLow, ResHigh);
  Res = select(_mm256_or_si256(below(K, -1), above(K, 56)), ResFar, Res);
  Res = select(_mm256_cmpeq_epi32(K, splat(0xffffffff)), ResMinus1, Res);
  Res = select(_mm256_cmpeq_epi32(K, _mm256_setzero_si256()), Res0, Res);
  // |x| < 2^-25: x.
  return select(below(HX, 0x33000000), X, Res);
}

/// fdlibm tanhf on eight lanes.
__m256 tanh8(__m256 X) {
  const __m256 One = _mm256_set1_ps(1.0f), Two = _mm256_set1_ps(2.0f);
  const __m256i Bits = _mm256_castps_si256(X);
  const __m256 Sign =
      _mm256_castsi256_ps(_mm256_and_si256(Bits, splat(SignBit)));
  const __m256i IX = _mm256_and_si256(Bits, splat(0x7fffffff));
  const __m256 TwoAbs = mul(Two, _mm256_castsi256_ps(IX));

  // |x| >= 1: 1 - 2 / (t + 2) with t = expm1(2|x|); below: -t / (t + 2)
  // with t = expm1(-2|x|). One division serves both.
  __m256i AtLeastOne = above(IX, 0x3f7fffff);
  __m256 T = expm1ForTanh(
      select(AtLeastOne, TwoAbs, _mm256_xor_ps(TwoAbs, splatF(SignBit))));
  __m256 Q = _mm256_div_ps(
      select(AtLeastOne, Two, _mm256_xor_ps(T, splatF(SignBit))),
      _mm256_add_ps(T, Two));
  __m256 Z = select(AtLeastOne, _mm256_sub_ps(One, Q), Q);
  Z = _mm256_xor_ps(Z, Sign);
  // |x| < 2^-55, ±0 included: x (1 + x).
  Z = select(below(IX, 0x24000000), mul(X, _mm256_add_ps(One, X)), Z);
  // |x| >= 22, ±inf included: ±1.
  Z = select(above(IX, 0x41afffff), _mm256_or_ps(One, Sign), Z);
  // NaN: x + x.
  return select(above(IX, 0x7f800000), _mm256_add_ps(X, X), Z);
}

/// 2^(i/32) as doubles, each less i << 47 so that adding k << 47 to
/// entry k % 32 gives 2^(k/32) for any k in range.
alignas(32) constexpr uint64_t Exp2Table[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

/// expf on four lanes with |x| < 88, in double as the FMA variant of
/// glibc's expf computes it.
__m128 expf4(__m128 X) {
  const __m256d InvLn2N = splatD(0x40471547652b82fe);
  const __m256d Shift = splatD(0x4338000000000000);
  __m256d Xd = _mm256_cvtps_pd(X);
  __m256d Kd = _mm256_fmadd_pd(InvLn2N, Xd, Shift);
  __m256i Ki = _mm256_castpd_si256(Kd);
  __m256d R = _mm256_fmsub_pd(InvLn2N, Xd, _mm256_sub_pd(Kd, Shift));
  __m256i S = _mm256_i64gather_epi64(
      reinterpret_cast<const long long *>(Exp2Table),
      _mm256_and_si256(Ki, _mm256_set1_epi64x(31)), 8);
  S = _mm256_add_epi64(S, _mm256_slli_epi64(Ki, 47));
  __m256d Z = _mm256_fmadd_pd(splatD(0x3ebc6af84b912394), R,
                              splatD(0x3f2ebfce50fac4f3));
  __m256d R2 = _mm256_mul_pd(R, R);
  __m256d Y = _mm256_fmadd_pd(splatD(0x3f962e42ff0c52d6), R,
                              _mm256_set1_pd(1.0));
  Y = _mm256_fmadd_pd(Z, R2, Y);
  return _mm256_cvtpd_ps(_mm256_mul_pd(Y, _mm256_castsi256_pd(S)));
}

/// 1 / (1 + expf(-x)) on eight lanes with |x| < 88.
__m256 sigmoid8(__m256 X) {
  const __m256 One = _mm256_set1_ps(1.0f);
  __m256 NegX = _mm256_xor_ps(X, splatF(SignBit));
  __m256 E = _mm256_set_m128(expf4(_mm256_extractf128_ps(NegX, 1)),
                             expf4(_mm256_castps256_ps128(NegX)));
  return _mm256_div_ps(One, _mm256_add_ps(One, E));
}

} // namespace

#endif // LIGER_SIMD_AVX2

void kernels::sigmoidMap(size_t N, const float *X, float *Y) {
  size_t I = 0;
#if defined(LIGER_SIMD_AVX2)
  for (; I + 8 <= N; I += 8) {
    __m256 V = _mm256_loadu_ps(X + I);
    // |x| >= 88, inf and NaN leave expf's main path.
    __m256i Abs = _mm256_and_si256(_mm256_castps_si256(V), splat(0x7fffffff));
    if (_mm256_movemask_epi8(above(Abs, 0x42afffff)) != 0) {
      for (size_t J = I; J < I + 8; ++J)
        Y[J] = sigmoidScalar(X[J]);
      continue;
    }
    _mm256_storeu_ps(Y + I, sigmoid8(V));
  }
#endif
  for (; I < N; ++I)
    Y[I] = sigmoidScalar(X[I]);
}

void kernels::tanhMap(size_t N, const float *X, float *Y) {
  size_t I = 0;
#if defined(LIGER_SIMD_AVX2)
  for (; I + 8 <= N; I += 8)
    _mm256_storeu_ps(Y + I, tanh8(_mm256_loadu_ps(X + I)));
#endif
  for (; I < N; ++I)
    Y[I] = std::tanh(X[I]);
}
