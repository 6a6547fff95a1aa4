//===-- support/Rng.h - Deterministic pseudo-random numbers ----*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, fast, deterministic PRNG (xoshiro256** seeded via splitmix64)
/// used everywhere randomness is needed: corpus generation, test-input
/// generation, weight initialization, and data shuffling. Determinism
/// given a fixed seed is load-bearing for reproducible experiments, so we
/// do not use std::mt19937 (whose distributions are not portable across
/// standard libraries).
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_SUPPORT_RNG_H
#define LIGER_SUPPORT_RNG_H

#include "support/Error.h"

#include <array>
#include <cstdint>
#include <vector>

namespace liger {

/// Deterministic xoshiro256** generator.
class Rng {
public:
  explicit Rng(uint64_t Seed = 0x9E3779B97F4A7C15ULL) { reseed(Seed); }

  /// Re-initializes the state from \p Seed via splitmix64.
  void reseed(uint64_t Seed) {
    for (auto &Word : State) {
      Seed += 0x9E3779B97F4A7C15ULL;
      uint64_t Z = Seed;
      Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
      Word = Z ^ (Z >> 31);
    }
  }

  /// Returns the next raw 64-bit value.
  uint64_t next() {
    uint64_t Result = rotl(State[1] * 5, 7) * 9;
    uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = rotl(State[3], 45);
    return Result;
  }

  /// Uniform integer in [0, Bound). \p Bound must be positive.
  uint64_t nextBelow(uint64_t Bound) {
    LIGER_CHECK(Bound > 0, "nextBelow requires positive bound");
    // Rejection sampling to avoid modulo bias.
    uint64_t Threshold = (0 - Bound) % Bound;
    for (;;) {
      uint64_t R = next();
      if (R >= Threshold)
        return R % Bound;
    }
  }

  /// Uniform integer in [Lo, Hi] inclusive.
  int64_t nextInt(int64_t Lo, int64_t Hi) {
    LIGER_CHECK(Lo <= Hi, "nextInt requires Lo <= Hi");
    return Lo + static_cast<int64_t>(
                    nextBelow(static_cast<uint64_t>(Hi - Lo) + 1));
  }

  /// Uniform double in [0, 1).
  double nextDouble() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [Lo, Hi).
  float nextFloat(float Lo, float Hi) {
    return Lo + static_cast<float>(nextDouble()) * (Hi - Lo);
  }

  /// Bernoulli draw with probability \p P of returning true.
  bool nextBool(double P = 0.5) { return nextDouble() < P; }

  /// Picks a uniformly random element of \p Items (must be non-empty).
  template <typename T> const T &pick(const std::vector<T> &Items) {
    LIGER_CHECK(!Items.empty(), "pick from empty vector");
    return Items[nextBelow(Items.size())];
  }

  /// Fisher–Yates shuffle of \p Items in place.
  template <typename T> void shuffle(std::vector<T> &Items) {
    for (size_t I = Items.size(); I > 1; --I)
      std::swap(Items[I - 1], Items[nextBelow(I)]);
  }

  /// Samples an index from an unnormalized non-negative weight vector.
  size_t pickWeighted(const std::vector<double> &Weights);

  /// Derives an independent child generator (useful for parallel or
  /// per-item determinism regardless of consumption order).
  Rng split() { return Rng(next() ^ 0xD1B54A32D192ED03ULL); }

  /// The raw generator state, for checkpoint serialization: restoring
  /// it with setState() resumes the exact draw sequence.
  std::array<uint64_t, 4> state() const {
    return {State[0], State[1], State[2], State[3]};
  }

  /// Restores a state captured by state().
  void setState(const std::array<uint64_t, 4> &S) {
    for (size_t I = 0; I < 4; ++I)
      State[I] = S[I];
  }

private:
  static uint64_t rotl(uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }

  uint64_t State[4];
};

} // namespace liger

#endif // LIGER_SUPPORT_RNG_H
