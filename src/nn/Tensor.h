//===-- nn/Tensor.h - Dense float tensors -----------------------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal dense float32 tensor (rank 1 or 2, row-major). This is the
/// storage type of the from-scratch neural network library replacing
/// the paper's TensorFlow substrate. Models here process one sample at
/// a time (traces have ragged shapes), so activations are vectors and
/// parameters are matrices — no batching machinery is needed.
///
/// Storage comes from a thread-local buffer pool (a freelist keyed by
/// exact element count): define-by-run training allocates and frees
/// the same small set of shapes millions of times per epoch, so after
/// warm-up every tensor allocation is a freelist pop instead of a
/// malloc. Shapes are stored inline (rank <= 2), so constructing a
/// tensor performs no heap allocation at all once the pool is warm.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_NN_TENSOR_H
#define LIGER_NN_TENSOR_H

#include "support/Error.h"
#include "support/Rng.h"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#if defined(LIGER_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace liger {

namespace detail {
/// Returns a float buffer of \p N elements (contents unspecified) from
/// the calling thread's pool, falling back to a fresh 64-byte-aligned
/// allocation (every pooled buffer is cache-line aligned).
float *bufferAcquire(size_t N);
/// Returns \p Data (of \p N elements) to the calling thread's pool.
/// Buffers may be released on a different thread than they were
/// acquired on; they then join the releasing thread's freelist.
void bufferRelease(float *Data, size_t N);
} // namespace detail

/// Dense row-major float tensor of rank 1 (vector) or 2 (matrix).
class Tensor {
public:
  Tensor() = default;

  ~Tensor() {
    if (Data && !Borrowed)
      detail::bufferRelease(Data, N);
  }

  Tensor(const Tensor &Other) { copyFrom(Other); }

  Tensor(Tensor &&Other) noexcept { steal(Other); }

  Tensor &operator=(const Tensor &Other) {
    if (this != &Other) {
      release();
      copyFrom(Other);
    }
    return *this;
  }

  Tensor &operator=(Tensor &&Other) noexcept {
    if (this != &Other) {
      release();
      steal(Other);
    }
    return *this;
  }

  /// Zero vector of dimension \p N.
  static Tensor zeros(size_t N) {
    Tensor T(N, 0, 1);
    std::memset(T.Data, 0, N * sizeof(float));
    return T;
  }
  /// Zero matrix with \p Rows x \p Cols entries.
  static Tensor zeros(size_t Rows, size_t Cols) {
    Tensor T(Rows, Cols, 2);
    std::memset(T.Data, 0, T.N * sizeof(float));
    return T;
  }
  /// Zero tensor with the shape of \p Other.
  static Tensor zerosLike(const Tensor &Other) {
    return Other.rank() == 1 ? zeros(Other.dim(0))
                             : zeros(Other.dim(0), Other.dim(1));
  }
  /// Uninitialized vector of dimension \p N — for outputs every entry
  /// of which is about to be overwritten (kernel destinations).
  static Tensor raw(size_t N) { return Tensor(N, 0, 1); }
  /// Uninitialized [Rows x Cols] matrix (batched kernel destinations).
  static Tensor raw(size_t Rows, size_t Cols) {
    return Tensor(Rows, Cols, 2);
  }
  /// Non-owning rank-1 view of \p Count floats at \p Values (row views
  /// into a batch node's value). The viewed storage must outlive the
  /// view; copies of a view are deep, owning copies.
  static Tensor view(float *Values, size_t Count) {
    Tensor T;
    T.Data = Values;
    T.N = Count;
    T.Rank = 1;
    T.Dims[0] = Count;
    T.Borrowed = true;
    return T;
  }
  /// Vector from explicit values.
  static Tensor fromVector(const std::vector<float> &Values) {
    Tensor T(Values.size(), 0, 1);
    if (!Values.empty())
      std::memcpy(T.Data, Values.data(), Values.size() * sizeof(float));
    return T;
  }
  /// Xavier/Glorot-uniform initialized matrix.
  static Tensor xavier(size_t Rows, size_t Cols, Rng &R) {
    Tensor T = zeros(Rows, Cols);
    float Bound = std::sqrt(6.0f / static_cast<float>(Rows + Cols));
    for (size_t I = 0; I < T.N; ++I)
      T.Data[I] = R.nextFloat(-Bound, Bound);
    return T;
  }
  /// Uniform-initialized vector in [-Bound, Bound].
  static Tensor uniform(size_t Count, float Bound, Rng &R) {
    Tensor T = zeros(Count);
    for (size_t I = 0; I < T.N; ++I)
      T.Data[I] = R.nextFloat(-Bound, Bound);
    return T;
  }

  bool empty() const { return N == 0; }
  size_t rank() const { return Rank; }
  size_t size() const { return N; }
  size_t dim(size_t I) const {
    LIGER_CHECK(I < Rank, "dimension index out of range");
    return Dims[I];
  }
  bool sameShape(const Tensor &Other) const {
    return Rank == Other.Rank && Dims[0] == Other.Dims[0] &&
           Dims[1] == Other.Dims[1];
  }

  float *data() { return Data; }
  const float *data() const { return Data; }

  float &operator[](size_t I) {
    LIGER_CHECK(I < N, "flat index out of range");
    return Data[I];
  }
  float operator[](size_t I) const {
    LIGER_CHECK(I < N, "flat index out of range");
    return Data[I];
  }
  /// Matrix element (row-major).
  float &at(size_t Row, size_t Col) {
    LIGER_CHECK(Rank == 2, "at(r,c) requires a matrix");
    LIGER_CHECK(Row < Dims[0] && Col < Dims[1], "index out of range");
    return Data[Row * Dims[1] + Col];
  }
  float at(size_t Row, size_t Col) const {
    LIGER_CHECK(Rank == 2, "at(r,c) requires a matrix");
    LIGER_CHECK(Row < Dims[0] && Col < Dims[1], "index out of range");
    return Data[Row * Dims[1] + Col];
  }

  /// Sets every entry to zero.
  void zero() {
    if (Data)
      std::memset(Data, 0, N * sizeof(float));
  }

  /// Elementwise accumulate: this += Other (shapes must match).
  void accumulate(const Tensor &Other) {
    LIGER_CHECK(sameShape(Other), "accumulate shape mismatch");
    float *__restrict D = Data;
    const float *__restrict S = Other.Data;
    for (size_t I = 0; I < N; ++I)
      D[I] += S[I];
  }

  /// Elementwise scale: this *= Factor.
  void scale(float Factor) {
    float *__restrict D = Data;
    for (size_t I = 0; I < N; ++I)
      D[I] *= Factor;
  }

  /// Sum of squares (for gradient-norm clipping / diagnostics).
  double sumSquares() const {
    double S = 0;
    for (size_t I = 0; I < N; ++I)
      S += static_cast<double>(Data[I]) * Data[I];
    return S;
  }

private:
  Tensor(size_t D0, size_t D1, uint32_t Rk) : Rank(Rk) {
    Dims[0] = D0;
    Dims[1] = D1;
    N = Rk == 2 ? D0 * D1 : D0;
    Data = detail::bufferAcquire(N);
  }

  void copyFrom(const Tensor &Other) {
    Rank = Other.Rank;
    Dims[0] = Other.Dims[0];
    Dims[1] = Other.Dims[1];
    N = Other.N;
    Data = Other.Data ? detail::bufferAcquire(N) : nullptr;
    if (Data)
      std::memcpy(Data, Other.Data, N * sizeof(float));
    Borrowed = false;
  }

  void steal(Tensor &Other) noexcept {
    Rank = Other.Rank;
    Dims[0] = Other.Dims[0];
    Dims[1] = Other.Dims[1];
    N = Other.N;
    Data = Other.Data;
    Borrowed = Other.Borrowed;
    Other.Data = nullptr;
    Other.N = 0;
    Other.Rank = 0;
    Other.Dims[0] = Other.Dims[1] = 0;
    Other.Borrowed = false;
  }

  void release() {
    if (Data && !Borrowed)
      detail::bufferRelease(Data, N);
    Data = nullptr;
    N = 0;
    Rank = 0;
    Dims[0] = Dims[1] = 0;
    Borrowed = false;
  }

  float *Data = nullptr;
  size_t N = 0;
  size_t Dims[2] = {0, 0};
  uint32_t Rank = 0;
  bool Borrowed = false;
};

/// Restrict-qualified inner-loop kernels shared by the forward and
/// backward passes in Graph.cpp. Keeping the pointer aliasing promises
/// in one place lets the compiler vectorize without runtime checks.
///
/// Two configurations exist, chosen at configure time (LIGER_SIMD_AVX2,
/// set by the LIGER_NATIVE_SIMD cmake option): explicit AVX2/FMA
/// intrinsics, or a portable scalar path unrolled with independent
/// partial accumulators. The two produce different float roundings, but
/// each is individually deterministic: for a fixed configuration every
/// reduction runs in one fixed order, so results are bitwise-stable
/// across runs and across --threads values.
///
/// Every reduction in the library — dot(), each matvec/matvecN row, the
/// fused cell ops — funnels through dot()'s accumulation scheme, so an
/// [R x C] block multiplied row-by-row and the same rows computed via
/// matvecN are bitwise-identical. The fused/unfused cell equivalence
/// test (NnTests.cpp, FusedEquivalenceTest) leans on this.
///
/// Every gradient accumulation — axpy, rank1Acc, matvecTAcc(Strided),
/// matvecTAccPair, rank1AccBatchDesc, addAccBatchDesc — is specified
/// per output element instead: the element's current value, then each
/// contribution's product rounded on its own (never fused into an FMA)
/// and added, in a fixed order (rows ascending in matvecTAcc, lanes
/// descending in the batch kernels). A kernel may visit the elements in
/// any loop nest, through memory or in registers, as long as no
/// element's chain changes; BackwardKernelOrderTest pins the chains
/// against per-element replays.
namespace kernels {

/// Pins \p P (a float or vector of floats) into a register so the
/// compiler cannot contract a neighboring mul and add into an FMA.
/// axpy() must round its product before the add — see the comment
/// there — and under -ffp-contract=fast GCC fuses across statements
/// and even through mul/add intrinsics unless blocked.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define LIGER_BLOCK_CONTRACT(P) asm volatile("" : "+x"(P))
#elif defined(__GNUC__)
#define LIGER_BLOCK_CONTRACT(P) asm volatile("" : "+w"(P))
#else
#define LIGER_BLOCK_CONTRACT(P) (void)(P)
#endif

#if defined(LIGER_SIMD_AVX2)

/// Fixed-order horizontal sum of one 8-lane accumulator: lanes are
/// reduced pairwise (0+4, 1+5, 2+6, 3+7), then (01+23), then the final
/// pair — the same tree every call, part of the determinism contract.
inline float hadd8(__m256 V) {
  __m128 Lo = _mm256_castps256_ps128(V);
  __m128 Hi = _mm256_extractf128_ps(V, 1);
  __m128 S = _mm_add_ps(Lo, Hi);
  S = _mm_add_ps(S, _mm_movehl_ps(S, S));
  S = _mm_add_ss(S, _mm_shuffle_ps(S, S, 1));
  return _mm_cvtss_f32(S);
}

/// Σ_i A[i] * B[i]. Two 8-wide FMA accumulators hide the FMA latency;
/// the remainder runs scalar in index order.
inline float dot(size_t N, const float *__restrict A,
                 const float *__restrict B) {
  __m256 Acc0 = _mm256_setzero_ps();
  __m256 Acc1 = _mm256_setzero_ps();
  size_t I = 0;
  for (; I + 16 <= N; I += 16) {
    Acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(A + I), _mm256_loadu_ps(B + I),
                           Acc0);
    Acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(A + I + 8),
                           _mm256_loadu_ps(B + I + 8), Acc1);
  }
  if (I + 8 <= N) {
    Acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(A + I), _mm256_loadu_ps(B + I),
                           Acc0);
    I += 8;
  }
  float Acc = hadd8(_mm256_add_ps(Acc0, Acc1));
  for (; I < N; ++I)
    Acc = std::fma(A[I], B[I], Acc);
  return Acc;
}

/// Y[i] += A * X[i]: per element, P = A * X[i] rounded, then Y[i] + P
/// rounded. That pair is the unit every gradient kernel below chains.
///
/// Deliberately mul-then-add with the product pinned by
/// LIGER_BLOCK_CONTRACT, NOT fmadd: gradients that accumulate through
/// a zero-initialized staging buffer (view nodes over packed
/// parameters) round the product before the add, so the direct fused
/// accumulation must round it too or the two paths drift in the low
/// bits. Under -ffp-contract=fast GCC re-fuses even mul/add
/// *intrinsics* into FMA, hence the barrier. Pure reductions
/// (dot/matvec) are free to use FMA — both paths call them on
/// identical inputs.
inline void axpy(size_t N, float A, const float *__restrict X,
                 float *__restrict Y) {
  __m256 VA = _mm256_set1_ps(A);
  size_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 P = _mm256_mul_ps(VA, _mm256_loadu_ps(X + I));
    LIGER_BLOCK_CONTRACT(P);
    _mm256_storeu_ps(Y + I, _mm256_add_ps(_mm256_loadu_ps(Y + I), P));
  }
  for (; I < N; ++I) {
    float P = A * X[I];
    LIGER_BLOCK_CONTRACT(P);
    Y[I] += P;
  }
}

/// Y[i] += X[i].
inline void addAcc(size_t N, const float *__restrict X,
                   float *__restrict Y) {
  size_t I = 0;
  for (; I + 8 <= N; I += 8)
    _mm256_storeu_ps(Y + I, _mm256_add_ps(_mm256_loadu_ps(Y + I),
                                          _mm256_loadu_ps(X + I)));
  for (; I < N; ++I)
    Y[I] += X[I];
}

/// Y = M x where M is a [Rows x Cols] band inside a row-major matrix
/// whose rows are \p RowStride floats apart (RowStride == Cols for a
/// dense matrix). Rows are processed four at a time so each load of X
/// feeds four FMA chains; every row's reduction is bit-identical to
/// dot(Cols, row, X) — same 2-accumulator split, same remainder
/// handling, same horizontal-add tree. The stride lets the attention
/// score MLP multiply by the key-side or query-side column half of its
/// packed first-layer weight without copying it out.
inline void matvecStrided(size_t Rows, size_t Cols, size_t RowStride,
                          const float *__restrict M, const float *__restrict X,
                          float *__restrict Y) {
  size_t R = 0;
  for (; R + 4 <= Rows; R += 4) {
    const float *R0 = M + R * RowStride;
    const float *R1 = R0 + RowStride;
    const float *R2 = R1 + RowStride;
    const float *R3 = R2 + RowStride;
    __m256 A00 = _mm256_setzero_ps(), A01 = _mm256_setzero_ps();
    __m256 A10 = _mm256_setzero_ps(), A11 = _mm256_setzero_ps();
    __m256 A20 = _mm256_setzero_ps(), A21 = _mm256_setzero_ps();
    __m256 A30 = _mm256_setzero_ps(), A31 = _mm256_setzero_ps();
    size_t I = 0;
    for (; I + 16 <= Cols; I += 16) {
      __m256 X0 = _mm256_loadu_ps(X + I);
      __m256 X1 = _mm256_loadu_ps(X + I + 8);
      A00 = _mm256_fmadd_ps(_mm256_loadu_ps(R0 + I), X0, A00);
      A01 = _mm256_fmadd_ps(_mm256_loadu_ps(R0 + I + 8), X1, A01);
      A10 = _mm256_fmadd_ps(_mm256_loadu_ps(R1 + I), X0, A10);
      A11 = _mm256_fmadd_ps(_mm256_loadu_ps(R1 + I + 8), X1, A11);
      A20 = _mm256_fmadd_ps(_mm256_loadu_ps(R2 + I), X0, A20);
      A21 = _mm256_fmadd_ps(_mm256_loadu_ps(R2 + I + 8), X1, A21);
      A30 = _mm256_fmadd_ps(_mm256_loadu_ps(R3 + I), X0, A30);
      A31 = _mm256_fmadd_ps(_mm256_loadu_ps(R3 + I + 8), X1, A31);
    }
    if (I + 8 <= Cols) {
      __m256 X0 = _mm256_loadu_ps(X + I);
      A00 = _mm256_fmadd_ps(_mm256_loadu_ps(R0 + I), X0, A00);
      A10 = _mm256_fmadd_ps(_mm256_loadu_ps(R1 + I), X0, A10);
      A20 = _mm256_fmadd_ps(_mm256_loadu_ps(R2 + I), X0, A20);
      A30 = _mm256_fmadd_ps(_mm256_loadu_ps(R3 + I), X0, A30);
      I += 8;
    }
    float S0 = hadd8(_mm256_add_ps(A00, A01));
    float S1 = hadd8(_mm256_add_ps(A10, A11));
    float S2 = hadd8(_mm256_add_ps(A20, A21));
    float S3 = hadd8(_mm256_add_ps(A30, A31));
    for (; I < Cols; ++I) {
      float XI = X[I];
      S0 = std::fma(R0[I], XI, S0);
      S1 = std::fma(R1[I], XI, S1);
      S2 = std::fma(R2[I], XI, S2);
      S3 = std::fma(R3[I], XI, S3);
    }
    Y[R] = S0;
    Y[R + 1] = S1;
    Y[R + 2] = S2;
    Y[R + 3] = S3;
  }
  for (; R < Rows; ++R)
    Y[R] = dot(Cols, M + R * RowStride, X);
}

/// Y = M x for a dense row-major [Rows x Cols] matrix.
inline void matvec(size_t Rows, size_t Cols, const float *__restrict M,
                   const float *__restrict X, float *__restrict Y) {
  matvecStrided(Rows, Cols, Cols, M, X, Y);
}

/// Y_b = M x_b for B right-hand-side vectors: the [B x Cols] operand's
/// rows sit \p XStride floats apart, the [B x Rows] result's rows
/// \p YStride apart, and M is a [Rows x Cols] band with rows \p MStride
/// apart (MStride == Cols for a dense matrix). Register-blocked 2
/// M-rows x 2 vectors, so each loaded M chunk feeds two outputs and
/// each loaded x chunk feeds two rows — the data reuse a per-sample
/// matvec loop cannot get. Every output element is bitwise-identical to
/// dot(Cols, M_row, x_b): same two-accumulator chunk schedule, same
/// extra-8 chunk into the first accumulator, same horizontal-add tree,
/// same scalar fma tail. Edge rows/vectors fall back to dot /
/// matvecStrided, which share that contract.
inline void matmul(size_t B, size_t Rows, size_t Cols,
                   const float *__restrict M, size_t MStride,
                   const float *__restrict X, size_t XStride,
                   float *__restrict Y, size_t YStride) {
  size_t Bi = 0;
  for (; Bi + 2 <= B; Bi += 2) {
    const float *Xa = X + Bi * XStride;
    const float *Xb = Xa + XStride;
    float *Ya = Y + Bi * YStride;
    float *Yb = Ya + YStride;
    size_t R = 0;
    for (; R + 2 <= Rows; R += 2) {
      const float *M0 = M + R * MStride;
      const float *M1 = M0 + MStride;
      __m256 A0a0 = _mm256_setzero_ps(), A0a1 = _mm256_setzero_ps();
      __m256 A0b0 = _mm256_setzero_ps(), A0b1 = _mm256_setzero_ps();
      __m256 A1a0 = _mm256_setzero_ps(), A1a1 = _mm256_setzero_ps();
      __m256 A1b0 = _mm256_setzero_ps(), A1b1 = _mm256_setzero_ps();
      size_t I = 0;
      for (; I + 16 <= Cols; I += 16) {
        __m256 Xa0 = _mm256_loadu_ps(Xa + I);
        __m256 Xa1 = _mm256_loadu_ps(Xa + I + 8);
        __m256 Xb0 = _mm256_loadu_ps(Xb + I);
        __m256 Xb1 = _mm256_loadu_ps(Xb + I + 8);
        __m256 M00 = _mm256_loadu_ps(M0 + I);
        __m256 M01 = _mm256_loadu_ps(M0 + I + 8);
        __m256 M10 = _mm256_loadu_ps(M1 + I);
        __m256 M11 = _mm256_loadu_ps(M1 + I + 8);
        A0a0 = _mm256_fmadd_ps(M00, Xa0, A0a0);
        A0a1 = _mm256_fmadd_ps(M01, Xa1, A0a1);
        A0b0 = _mm256_fmadd_ps(M00, Xb0, A0b0);
        A0b1 = _mm256_fmadd_ps(M01, Xb1, A0b1);
        A1a0 = _mm256_fmadd_ps(M10, Xa0, A1a0);
        A1a1 = _mm256_fmadd_ps(M11, Xa1, A1a1);
        A1b0 = _mm256_fmadd_ps(M10, Xb0, A1b0);
        A1b1 = _mm256_fmadd_ps(M11, Xb1, A1b1);
      }
      if (I + 8 <= Cols) {
        __m256 Xa0 = _mm256_loadu_ps(Xa + I);
        __m256 Xb0 = _mm256_loadu_ps(Xb + I);
        __m256 M00 = _mm256_loadu_ps(M0 + I);
        __m256 M10 = _mm256_loadu_ps(M1 + I);
        A0a0 = _mm256_fmadd_ps(M00, Xa0, A0a0);
        A0b0 = _mm256_fmadd_ps(M00, Xb0, A0b0);
        A1a0 = _mm256_fmadd_ps(M10, Xa0, A1a0);
        A1b0 = _mm256_fmadd_ps(M10, Xb0, A1b0);
        I += 8;
      }
      float S0a = hadd8(_mm256_add_ps(A0a0, A0a1));
      float S0b = hadd8(_mm256_add_ps(A0b0, A0b1));
      float S1a = hadd8(_mm256_add_ps(A1a0, A1a1));
      float S1b = hadd8(_mm256_add_ps(A1b0, A1b1));
      for (; I < Cols; ++I) {
        float XaI = Xa[I], XbI = Xb[I];
        S0a = std::fma(M0[I], XaI, S0a);
        S0b = std::fma(M0[I], XbI, S0b);
        S1a = std::fma(M1[I], XaI, S1a);
        S1b = std::fma(M1[I], XbI, S1b);
      }
      Ya[R] = S0a;
      Ya[R + 1] = S1a;
      Yb[R] = S0b;
      Yb[R + 1] = S1b;
    }
    for (; R < Rows; ++R) {
      const float *MR = M + R * MStride;
      Ya[R] = dot(Cols, MR, Xa);
      Yb[R] = dot(Cols, MR, Xb);
    }
  }
  if (Bi < B)
    matvecStrided(Rows, Cols, MStride, M, X + Bi * XStride, Y + Bi * YStride);
}

//===--------------------------------------------------------------------===//
// Register-blocked gradient accumulation. An output block is loaded
// once, takes every contribution in its chain's order in accumulators,
// and is stored once, instead of one load-add-store round trip per
// contribution, each waiting on the store before it.
//===--------------------------------------------------------------------===//

/// Mask of the first \p N (1..7) floats of an 8-float chunk: masked
/// loads and stores run a kernel's partial last chunk in a vector
/// register without touching memory past the end of a row.
inline __m256i headMask(size_t N) {
  static const int32_t Bits[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                   0,  0,  0,  0,  0,  0,  0,  0};
  return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(Bits + 8 - N));
}

/// Splits columns [0, Cols) into register blocks: Block(NC, C) for NC
/// whole 8-float chunks starting at column C (NC a
/// std::integral_constant: 4 while 32 columns remain, then the 1-3
/// chunks left), and Tail(N, C) for the last N = Cols % 8 columns.
template <typename BlockFn, typename TailFn>
inline void forColumnBlocks(size_t Cols, BlockFn Block, TailFn Tail) {
  size_t C = 0;
  for (; C + 32 <= Cols; C += 32)
    Block(std::integral_constant<size_t, 4>(), C);
  switch ((Cols - C) / 8) {
  case 3:
    Block(std::integral_constant<size_t, 3>(), C);
    C += 24;
    break;
  case 2:
    Block(std::integral_constant<size_t, 2>(), C);
    C += 16;
    break;
  case 1:
    Block(std::integral_constant<size_t, 1>(), C);
    C += 8;
    break;
  default:
    break;
  }
  if (C < Cols)
    Tail(Cols - C, C);
}

/// XG[I][c] += Σ_r G[r] * M[I][r][c] for NB [Rows x Cols] bands M[I],
/// rows \p RowStride apart, in one pass over the rows. Per element the
/// chain of Rows axpy calls, rows ascending. Up to four chunks of each
/// XG[I] stay in accumulators across all the rows, so each row costs one
/// broadcast and, per chunk and band, one load, multiply and add; a
/// second band gives the adder a second independent chain per chunk.
/// The XG[I] must be disjoint.
template <size_t NB>
inline void matvecTAccBands(size_t Rows, size_t Cols, size_t RowStride,
                            const float *const *M, const float *__restrict G,
                            float *const *XG) {
  forColumnBlocks(
      Cols,
      [&](auto Chunks, size_t C) {
        constexpr size_t NC = decltype(Chunks)::value;
        __m256 Acc[NB][NC];
        for (size_t I = 0; I < NB; ++I)
          for (size_t K = 0; K < NC; ++K)
            Acc[I][K] = _mm256_loadu_ps(XG[I] + C + 8 * K);
        for (size_t R = 0; R < Rows; ++R) {
          __m256 VG = _mm256_set1_ps(G[R]);
          for (size_t I = 0; I < NB; ++I) {
            const float *MR = M[I] + R * RowStride + C;
            for (size_t K = 0; K < NC; ++K) {
              __m256 P = _mm256_mul_ps(VG, _mm256_loadu_ps(MR + 8 * K));
              LIGER_BLOCK_CONTRACT(P);
              Acc[I][K] = _mm256_add_ps(Acc[I][K], P);
            }
          }
        }
        for (size_t I = 0; I < NB; ++I)
          for (size_t K = 0; K < NC; ++K)
            _mm256_storeu_ps(XG[I] + C + 8 * K, Acc[I][K]);
      },
      [&](size_t N, size_t C) {
        __m256i Mask = headMask(N);
        __m256 Acc[NB];
        for (size_t I = 0; I < NB; ++I)
          Acc[I] = _mm256_maskload_ps(XG[I] + C, Mask);
        for (size_t R = 0; R < Rows; ++R) {
          __m256 VG = _mm256_set1_ps(G[R]);
          for (size_t I = 0; I < NB; ++I) {
            __m256 P = _mm256_mul_ps(
                VG, _mm256_maskload_ps(M[I] + R * RowStride + C, Mask));
            LIGER_BLOCK_CONTRACT(P);
            Acc[I] = _mm256_add_ps(Acc[I], P);
          }
        }
        for (size_t I = 0; I < NB; ++I)
          _mm256_maskstore_ps(XG[I] + C, Mask, Acc[I]);
      });
}

/// XG[c] += Σ_r G[r] * M[r][c] where M is a [Rows x Cols] band with
/// rows \p RowStride apart (gradient of matvecStrided wrt x).
inline void matvecTAccStrided(size_t Rows, size_t Cols, size_t RowStride,
                              const float *__restrict M,
                              const float *__restrict G,
                              float *__restrict XG) {
  const float *Ms[1] = {M};
  float *XGs[1] = {XG};
  matvecTAccBands<1>(Rows, Cols, RowStride, Ms, G, XGs);
}

/// matvecTAcc(Rows, Cols, MA, G, XGA) and matvecTAcc(Rows, Cols, MB, G,
/// XGB) in one pass over the rows. XGA and XGB must be disjoint.
inline void matvecTAccPair(size_t Rows, size_t Cols, const float *MA,
                           const float *MB, const float *__restrict G,
                           float *XGA, float *XGB) {
  const float *Ms[2] = {MA, MB};
  float *XGs[2] = {XGA, XGB};
  matvecTAccBands<2>(Rows, Cols, Cols, Ms, G, XGs);
}

/// Rows [0, NR) of rank1AccBatchDesc (\p PG and \p MG at the first of
/// them): each register tile of NR rows x up to four chunks stays in
/// accumulators across all B lanes, and each lane's X chunk is loaded
/// once for the NR rows.
template <size_t NR>
inline void rank1AccBatchDescRows(size_t B, size_t Cols,
                                  const float *__restrict PG, size_t PGStride,
                                  const float *const *X,
                                  float *__restrict MG) {
  forColumnBlocks(
      Cols,
      [&](auto Chunks, size_t C) {
        constexpr size_t NC = decltype(Chunks)::value;
        __m256 Acc[NR][NC];
        for (size_t R = 0; R < NR; ++R)
          for (size_t K = 0; K < NC; ++K)
            Acc[R][K] = _mm256_loadu_ps(MG + R * Cols + C + 8 * K);
        for (size_t Bi = B; Bi-- > 0;) {
          __m256 XV[NC];
          for (size_t K = 0; K < NC; ++K)
            XV[K] = _mm256_loadu_ps(X[Bi] + C + 8 * K);
          for (size_t R = 0; R < NR; ++R) {
            __m256 VG = _mm256_set1_ps(PG[Bi * PGStride + R]);
            for (size_t K = 0; K < NC; ++K) {
              __m256 P = _mm256_mul_ps(VG, XV[K]);
              LIGER_BLOCK_CONTRACT(P);
              Acc[R][K] = _mm256_add_ps(Acc[R][K], P);
            }
          }
        }
        for (size_t R = 0; R < NR; ++R)
          for (size_t K = 0; K < NC; ++K)
            _mm256_storeu_ps(MG + R * Cols + C + 8 * K, Acc[R][K]);
      },
      [&](size_t N, size_t C) {
        __m256i Mask = headMask(N);
        __m256 Acc[NR];
        for (size_t R = 0; R < NR; ++R)
          Acc[R] = _mm256_maskload_ps(MG + R * Cols + C, Mask);
        for (size_t Bi = B; Bi-- > 0;) {
          __m256 XV = _mm256_maskload_ps(X[Bi] + C, Mask);
          for (size_t R = 0; R < NR; ++R) {
            __m256 P = _mm256_mul_ps(_mm256_set1_ps(PG[Bi * PGStride + R]), XV);
            LIGER_BLOCK_CONTRACT(P);
            Acc[R] = _mm256_add_ps(Acc[R], P);
          }
        }
        for (size_t R = 0; R < NR; ++R)
          _mm256_maskstore_ps(MG + R * Cols + C, Mask, Acc[R]);
      });
}

/// Shared-parameter rank-1 accumulation over a batch in DESCENDING
/// sample order: MG[r][c] += PG[b * PGStride + r] * X[b][c] for
/// b = B-1..0, with the same round-the-product-then-add pair axpy
/// performs (contraction blocked). Each gradient element's addition
/// chain is therefore bitwise-identical to B rank1Acc calls replayed
/// in descending sample order — but the gradient matrix is loaded and
/// stored once, in 2-row register tiles, instead of once per sample.
inline void rank1AccBatchDesc(size_t B, size_t Rows, size_t Cols,
                              const float *__restrict PG, size_t PGStride,
                              const float *const *X,
                              float *__restrict MG) {
  size_t R = 0;
  for (; R + 2 <= Rows; R += 2)
    rank1AccBatchDescRows<2>(B, Cols, PG + R, PGStride, X, MG + R * Cols);
  if (R < Rows)
    rank1AccBatchDescRows<1>(B, Cols, PG + R, PGStride, X, MG + R * Cols);
}

/// Bias accumulation over a batch in descending sample order:
/// Y[i] += PG[b * PGStride + i] for b = B-1..0 — bitwise-identical to
/// B addAcc calls replayed descending (plain adds in both).
inline void addAccBatchDesc(size_t B, size_t N, const float *__restrict PG,
                            size_t PGStride, float *__restrict Y) {
  size_t I = 0;
  for (; I + 8 <= N; I += 8) {
    __m256 Acc = _mm256_loadu_ps(Y + I);
    for (size_t Bi = B; Bi-- > 0;)
      Acc = _mm256_add_ps(Acc, _mm256_loadu_ps(PG + Bi * PGStride + I));
    _mm256_storeu_ps(Y + I, Acc);
  }
  for (; I < N; ++I) {
    float Acc = Y[I];
    for (size_t Bi = B; Bi-- > 0;)
      Acc += PG[Bi * PGStride + I];
    Y[I] = Acc;
  }
}

#else // scalar fallback

/// Σ_i A[i] * B[i]. Four independent partial accumulators break the
/// serial add chain (better ILP and a shorter error chain than one
/// running sum); the final combine order (0+1)+(2+3) is fixed.
inline float dot(size_t N, const float *__restrict A,
                 const float *__restrict B) {
  float P0 = 0.0f, P1 = 0.0f, P2 = 0.0f, P3 = 0.0f;
  // The four-wide limit is computed once, so the tail loop starts at a
  // known bound (N % 4 iterations) instead of the main loop's leftover
  // index; GCC then sees finite trip counts and raises no
  // -Waggressive-loop-optimizations.
  const size_t N4 = N - N % 4;
  for (size_t I = 0; I < N4; I += 4) {
    P0 += A[I] * B[I];
    P1 += A[I + 1] * B[I + 1];
    P2 += A[I + 2] * B[I + 2];
    P3 += A[I + 3] * B[I + 3];
  }
  float Acc = (P0 + P1) + (P2 + P3);
  for (size_t I = N4; I < N; ++I)
    Acc += A[I] * B[I];
  return Acc;
}

/// Y[i] += A * X[i].
/// Mul-then-add with the product pinned, never FMA — the fused and
/// staged gradient accumulation paths must round identically (see the
/// AVX2 axpy above).
inline void axpy(size_t N, float A, const float *__restrict X,
                 float *__restrict Y) {
  for (size_t I = 0; I < N; ++I) {
    float P = A * X[I];
    LIGER_BLOCK_CONTRACT(P);
    Y[I] += P;
  }
}

/// Y[i] += X[i].
inline void addAcc(size_t N, const float *__restrict X,
                   float *__restrict Y) {
  for (size_t I = 0; I < N; ++I)
    Y[I] += X[I];
}

/// Y = M x where M is a [Rows x Cols] band whose rows sit \p RowStride
/// floats apart (RowStride == Cols for a dense matrix). Each row is
/// dot(Cols, row, X), the same reduction the dense matvec uses.
inline void matvecStrided(size_t Rows, size_t Cols, size_t RowStride,
                          const float *__restrict M, const float *__restrict X,
                          float *__restrict Y) {
  for (size_t R = 0; R < Rows; ++R)
    Y[R] = dot(Cols, M + R * RowStride, X);
}

/// Y = M x for a dense row-major [Rows x Cols] matrix.
inline void matvec(size_t Rows, size_t Cols, const float *__restrict M,
                   const float *__restrict X, float *__restrict Y) {
  matvecStrided(Rows, Cols, Cols, M, X, Y);
}

/// Y_b = M x_b for B right-hand-side vectors (strides as in the AVX2
/// variant). The scalar configuration's per-row reduction is already
/// dot()'s 4-partial scheme, so the batched product is simply the
/// per-vector strided matvec — bitwise-identical per output element by
/// construction.
inline void matmul(size_t B, size_t Rows, size_t Cols,
                   const float *__restrict M, size_t MStride,
                   const float *__restrict X, size_t XStride,
                   float *__restrict Y, size_t YStride) {
  for (size_t Bi = 0; Bi < B; ++Bi)
    matvecStrided(Rows, Cols, MStride, M, X + Bi * XStride, Y + Bi * YStride);
}

/// XG[c] += Σ_r G[r] * M[r][c] where M is a [Rows x Cols] band with
/// rows \p RowStride apart (gradient of matvecStrided wrt x): one axpy
/// per row, rows ascending.
inline void matvecTAccStrided(size_t Rows, size_t Cols, size_t RowStride,
                              const float *__restrict M,
                              const float *__restrict G,
                              float *__restrict XG) {
  for (size_t R = 0; R < Rows; ++R)
    axpy(Cols, G[R], M + R * RowStride, XG);
}

/// The two bands of the AVX2 matvecTAccPair one after the other: they
/// are disjoint, so each element's chain is the same.
inline void matvecTAccPair(size_t Rows, size_t Cols, const float *MA,
                           const float *MB, const float *__restrict G,
                           float *XGA, float *XGB) {
  matvecTAccStrided(Rows, Cols, Cols, MA, G, XGA);
  matvecTAccStrided(Rows, Cols, Cols, MB, G, XGB);
}

/// Scalar rank-1 batch accumulation, descending sample order (see the
/// AVX2 variant): per element the same mul-then-add chain as B
/// descending rank1Acc calls.
inline void rank1AccBatchDesc(size_t B, size_t Rows, size_t Cols,
                              const float *__restrict PG, size_t PGStride,
                              const float *const *X,
                              float *__restrict MG) {
  for (size_t R = 0; R < Rows; ++R) {
    float *M = MG + R * Cols;
    for (size_t I = 0; I < Cols; ++I) {
      float Acc = M[I];
      for (size_t Bi = B; Bi-- > 0;) {
        float P = PG[Bi * PGStride + R] * X[Bi][I];
        LIGER_BLOCK_CONTRACT(P);
        Acc += P;
      }
      M[I] = Acc;
    }
  }
}

/// Scalar bias batch accumulation, descending sample order (see the
/// AVX2 variant).
inline void addAccBatchDesc(size_t B, size_t N, const float *__restrict PG,
                            size_t PGStride, float *__restrict Y) {
  for (size_t I = 0; I < N; ++I) {
    float Acc = Y[I];
    for (size_t Bi = B; Bi-- > 0;)
      Acc += PG[Bi * PGStride + I];
    Y[I] = Acc;
  }
}

#endif // LIGER_SIMD_AVX2

/// Y = [M_0; M_1; ...; M_{K-1}] x for K stacked [Rows x Cols] blocks
/// packed contiguously in \p M — one pass over X computing K outputs.
/// Row r of the result is bitwise-identical to matvec over that block
/// alone (both delegate to the same per-row reduction), which is what
/// lets the packed gate weights coexist with the per-gate reference
/// path.
inline void matvecN(size_t K, size_t Rows, size_t Cols,
                    const float *__restrict M, const float *__restrict X,
                    float *__restrict Y) {
  matvec(K * Rows, Cols, M, X, Y);
}

/// MG[r][c] += G[r] * X[c] (outer-product gradient of matvec wrt M).
inline void rank1Acc(size_t Rows, size_t Cols, const float *__restrict G,
                     const float *__restrict X, float *__restrict MG) {
  for (size_t R = 0; R < Rows; ++R)
    axpy(Cols, G[R], X, MG + R * Cols);
}

/// XG[c] += Σ_r G[r] * M[r][c] (gradient of matvec wrt x): the dense
/// band of matvecTAccStrided.
inline void matvecTAcc(size_t Rows, size_t Cols, const float *__restrict M,
                       const float *__restrict G, float *__restrict XG) {
  matvecTAccStrided(Rows, Cols, Cols, M, G, XG);
}

/// Y[r][0..Cols) += X[r][0..Cols) with independent row strides — the
/// strided scatter that lands a contiguous [Rows x Cols] gradient
/// staging block into a column band of a packed parameter (and the
/// backward of a column view). Rows ascend; each row is one addAcc.
inline void addAcc2d(size_t Rows, size_t Cols, const float *__restrict X,
                     size_t XStride, float *__restrict Y, size_t YStride) {
  for (size_t R = 0; R < Rows; ++R)
    addAcc(Cols, X + R * XStride, Y + R * YStride);
}

/// Σ_i A[i], with the same 4-partial-accumulator scheme as the scalar
/// dot (softmax normalization and friends).
inline float sum(size_t N, const float *__restrict A) {
  float P0 = 0.0f, P1 = 0.0f, P2 = 0.0f, P3 = 0.0f;
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    P0 += A[I];
    P1 += A[I + 1];
    P2 += A[I + 2];
    P3 += A[I + 3];
  }
  float Acc = (P0 + P1) + (P2 + P3);
  for (; I < N; ++I)
    Acc += A[I];
  return Acc;
}

//===--------------------------------------------------------------------===//
// Elementwise helpers shared between the per-op backward closures in
// Graph.cpp and the fused cell ops. Sharing one definition guarantees
// the two paths compile to the same float operations (same contraction
// decisions), which the fused/unfused bitwise-equivalence test relies
// on.
//===--------------------------------------------------------------------===//

/// The logistic function, spelled exactly as sigmoidV applies it.
inline float sigmoidScalar(float X) { return 1.0f / (1.0f + std::exp(-X)); }

/// Y[i] = sigmoidScalar(X[i]), bit for bit (X and Y may be the same
/// buffer — not restrict-qualified for that reason). Defined in
/// Activation.cpp, with the AVX2 lanes that reproduce libm's expf.
void sigmoidMap(size_t N, const float *X, float *Y);

/// Y[i] = std::tanh(X[i]), bit for bit (in-place allowed). Defined in
/// Activation.cpp, with the AVX2 lanes that reproduce libm's tanhf.
void tanhMap(size_t N, const float *X, float *Y);

/// Y[i] += G[i] * V[i] (mul backward wrt one operand).
inline void mulAcc(size_t N, const float *__restrict G,
                   const float *__restrict V, float *__restrict Y) {
  for (size_t I = 0; I < N; ++I)
    Y[I] += G[I] * V[I];
}

/// AG[i] += G[i] * (1 - Y[i]^2) — tanh backward through output Y.
inline void tanhGradAcc(size_t N, const float *__restrict G,
                        const float *__restrict Y, float *__restrict AG) {
  for (size_t I = 0; I < N; ++I)
    AG[I] += G[I] * (1.0f - Y[I] * Y[I]);
}

/// AG[i] += G[i] * Y[i] * (1 - Y[i]) — sigmoid backward through Y.
inline void sigmoidGradAcc(size_t N, const float *__restrict G,
                           const float *__restrict Y, float *__restrict AG) {
  for (size_t I = 0; I < N; ++I)
    AG[I] += G[I] * Y[I] * (1.0f - Y[I]);
}

/// XG[i] += Y[i] * (G[i] - Σ_j G[j] Y[j]) — softmax backward through
/// output Y. Shared between the softmax op and the fused attention
/// op's replay of it.
inline void softmaxGradAcc(size_t N, const float *__restrict G,
                           const float *__restrict Y, float *__restrict XG) {
  float Mix = dot(N, G, Y);
  for (size_t I = 0; I < N; ++I)
    XG[I] += Y[I] * (G[I] - Mix);
}

} // namespace kernels

} // namespace liger

#endif // LIGER_NN_TENSOR_H
