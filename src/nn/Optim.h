//===-- nn/Optim.h - Optimizers ---------------------------------*- C++ -*-===//
//
// Part of the LIGER reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Optimizers. The paper trains everything with Adam at its default
/// hyper-parameters (§6.1 Implementation: "learning rate = 0.0001,
/// beta1 = 0.9, beta2 = 0.999"); our CPU-scale default nudges the
/// learning rate up since corpora are smaller. Plain SGD exists for
/// the gradient-check tests and ablations.
///
//===----------------------------------------------------------------------===//

#ifndef LIGER_NN_OPTIM_H
#define LIGER_NN_OPTIM_H

#include "nn/Module.h"

namespace liger {

/// Adam hyper-parameters (paper defaults, except the CPU-scale
/// learning rate; see file comment).
struct AdamOptions {
  float LearningRate = 1e-3f;
  float Beta1 = 0.9f;
  float Beta2 = 0.999f;
  float Epsilon = 1e-8f;
  /// Clip the global gradient norm before stepping (0 = off). Off by
  /// default; trainers opt in via TrainOptions::ClipNorm.
  float ClipNorm = 0.0f;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam {
public:
  explicit Adam(ParamStore &Store, AdamOptions Opts = AdamOptions());

  /// Applies one update from the accumulated gradients, then zeroes
  /// them. Returns the (pre-clip) global gradient norm.
  double step();

  /// Serializable optimizer state (checkpointing): the step counter
  /// and per-parameter first/second moment estimates.
  uint64_t stepCount() const { return T; }
  const std::vector<Tensor> &firstMoments() const { return M; }
  const std::vector<Tensor> &secondMoments() const { return V; }

  /// Restores state captured by the accessors above; moment shapes
  /// must match the store's parameters. A subsequent step() then
  /// behaves bitwise-identically to the original optimizer's next step.
  void setState(uint64_t Step, std::vector<Tensor> NewM,
                std::vector<Tensor> NewV);

private:
  ParamStore &Store;
  AdamOptions Opts;
  std::vector<Tensor> M, V;
  uint64_t T = 0;
};

/// Plain SGD (used by tests to isolate optimizer effects).
class Sgd {
public:
  Sgd(ParamStore &Store, float LearningRate)
      : Store(Store), LearningRate(LearningRate) {}

  /// One update; zeroes gradients afterwards.
  void step();

private:
  ParamStore &Store;
  float LearningRate;
};

} // namespace liger

#endif // LIGER_NN_OPTIM_H
