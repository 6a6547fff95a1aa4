//===-- tests/ActivationSweep.h - Kernels against libm ----------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs kernels::tanhMap or kernels::sigmoidMap over float bit patterns
/// 0, Stride, 2 Stride, ... below 2^32 and compares every output bitwise
/// with the scalar call the kernel stands for (std::tanh or
/// sigmoidScalar). ActivationKernelTest sweeps with a stride; the
/// activation_exhaustive program sweeps every pattern.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_TESTS_ACTIVATIONSWEEP_H
#define LIGER_TESTS_ACTIVATIONSWEEP_H

#include "nn/Tensor.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

namespace liger {

enum class Activation { Tanh, Sigmoid };

inline uint32_t floatBits(float F) {
  uint32_t B;
  std::memcpy(&B, &F, sizeof B);
  return B;
}

inline float bitsFloat(uint32_t B) {
  float F;
  std::memcpy(&F, &B, sizeof F);
  return F;
}

inline const char *activationName(Activation A) {
  return A == Activation::Tanh ? "tanh" : "sigmoid";
}

/// The scalar libm call kernel \p A must match.
inline float activationReference(Activation A, float X) {
  return A == Activation::Tanh ? std::tanh(X) : kernels::sigmoidScalar(X);
}

inline void activationMap(Activation A, size_t N, const float *X, float *Y) {
  if (A == Activation::Tanh)
    kernels::tanhMap(N, X, Y);
  else
    kernels::sigmoidMap(N, X, Y);
}

/// Number of swept bit patterns whose kernel output differs from the
/// reference, split over \p Threads threads in blocks of 4096 inputs.
/// The first few mismatches are printed to stderr as input, reference
/// and kernel bits.
inline uint64_t activationMismatches(Activation A, uint64_t Stride,
                                     unsigned Threads) {
  constexpr size_t Block = 4096;
  constexpr uint64_t End = uint64_t(1) << 32;
  std::atomic<uint64_t> Mismatches{0};
  std::atomic<int> Printed{0};
  auto Sweep = [&](unsigned T) {
    std::vector<float> In(Block), Out(Block);
    for (uint64_t First = T * Block * Stride; First < End;
         First += Threads * Block * Stride) {
      size_t N = 0;
      for (uint64_t B = First; N < Block && B < End; B += Stride)
        In[N++] = bitsFloat(uint32_t(B));
      activationMap(A, N, In.data(), Out.data());
      for (size_t I = 0; I < N; ++I) {
        uint32_t Want = floatBits(activationReference(A, In[I]));
        if (Want == floatBits(Out[I]))
          continue;
        ++Mismatches;
        if (Printed++ < 16)
          std::fprintf(stderr, "%s(0x%08x): libm 0x%08x, kernel 0x%08x\n",
                       activationName(A), floatBits(In[I]), Want,
                       floatBits(Out[I]));
      }
    }
  };
  std::vector<std::thread> Workers;
  for (unsigned T = 1; T < Threads; ++T)
    Workers.emplace_back(Sweep, T);
  Sweep(0);
  for (std::thread &W : Workers)
    W.join();
  return Mismatches;
}

} // namespace liger

#endif // LIGER_TESTS_ACTIVATIONSWEEP_H
