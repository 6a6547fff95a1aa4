//===-- tests/ActivationExhaustive.cpp - Every float through the kernels --===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
//
// activation_exhaustive: runs kernels::tanhMap and kernels::sigmoidMap
// over all 2^32 float bit patterns and compares each output bitwise
// with std::tanh and sigmoidScalar. Prints the mismatch count per
// kernel and exits 1 if either is nonzero. ActivationKernelTest runs
// the same comparison on every 257th pattern; this is the full check,
// 25-45 s for both kernels on four threads, so ctest does not run it.
//
//   ./build/tests/activation_exhaustive
//
//===----------------------------------------------------------------------===//

#include "ActivationSweep.h"

#include <algorithm>

using namespace liger;

int main() {
  unsigned Threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  int Status = 0;
  for (Activation A : {Activation::Tanh, Activation::Sigmoid}) {
    uint64_t Mismatches = activationMismatches(A, 1, Threads);
    std::printf("%s: %llu mismatches over 2^32 inputs\n", activationName(A),
                static_cast<unsigned long long>(Mismatches));
    if (Mismatches != 0)
      Status = 1;
  }
  return Status;
}
