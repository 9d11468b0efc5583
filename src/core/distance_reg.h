// Distance-based stealth regularizer (Eq. 3 of the paper):
//
//   L_d = ||w - w(t)||_2  -  ||w(t) - w(t-1)||_2
//
// Added to the malicious classifier's cross-entropy loss so the crafted
// update deviates from the global model by about as much as the global
// model itself moved last round — mimicking benign round-to-round drift
// and evading distance-based defenses. Only the first term depends on w;
// its gradient is (w - w(t)) / ||w - w(t)||_2.
#pragma once

#include <span>
#include <vector>

#include "nn/module.h"

namespace zka::core {

class DistanceRegularizer {
 public:
  explicit DistanceRegularizer(double lambda = 1.0) : lambda_(lambda) {}

  /// L_d for a flat parameter vector (no gradient side effects).
  static double value(std::span<const float> w, std::span<const float> global,
                      std::span<const float> prev_global);

  /// Adds lambda * dL_d/dw onto the model's parameter gradients and
  /// returns lambda * L_d. Call between loss backward() and optimizer
  /// step(). No-op returning 0 when lambda == 0. `scratch` holds the
  /// flat-parameter working vector; a training loop keeps it so each step
  /// reuses its storage.
  double apply(nn::Module& model, std::span<const float> global,
               std::span<const float> prev_global,
               std::vector<float>& scratch) const;

  double lambda() const noexcept { return lambda_; }

 private:
  double lambda_;
};

}  // namespace zka::core
