// Layer-wise neural-network framework with explicit forward/backward.
//
// There is no tape autograd: each Module caches what its backward pass
// needs during forward, and backward(grad_output) both accumulates
// parameter gradients and returns the gradient w.r.t. the module input.
// That input gradient is exactly what the ZKA attacks exploit — they
// backpropagate through a frozen global classifier into a trainable
// filter layer (ZKA-R) or generator (ZKA-G). A FreezeScope makes such a
// classifier compute that input gradient and nothing else, and hands it
// back unfrozen when the scope ends, so the same model trains again.
//
// Buffers: every layer owns its output and input-gradient buffers and
// resizes them in place, so a module that has seen a batch shape once
// runs forward/backward on it again without allocating. The price is a
// borrowing contract, spelled out on forward() and backward() below.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace zka::nn {

using tensor::Tensor;

/// A learnable tensor plus its gradient accumulator.
struct Parameter {
  Tensor value;
  Tensor grad;

  explicit Parameter(Tensor v) : value(std::move(v)), grad(value.shape()) {}
};

class Module {
 public:
  Module() = default;
  virtual ~Module() = default;
  // Layers hand out pointers to their own members (parameters(), cached
  // inputs), so a copy would alias the original.
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Computes the output and caches whatever backward() will need.
  ///
  /// The returned reference points into a buffer this module owns. It stays
  /// valid until the next forward() or backward() on this module; a caller
  /// that keeps the result longer must copy it. `input` is borrowed too:
  /// it must stay alive and unchanged until backward() returns (Linear
  /// reads it there instead of keeping a copy).
  virtual const Tensor& forward(const Tensor& input) = 0;

  /// Accumulates parameter gradients (+=) and returns dLoss/dInput.
  /// Must be called after forward() with a grad of the forward output's
  /// shape. Valid to call multiple times only after another forward().
  /// The returned reference follows forward()'s rule, and a backward() may
  /// reuse the storage of this module's forward output.
  ///
  /// On a frozen module (see freeze()) it only returns dLoss/dInput.
  virtual const Tensor& backward(const Tensor& grad_output) = 0;

  /// Freezes the module: until thaw(), backward() returns the same
  /// dLoss/dInput, bit for bit, as it would unfrozen, but computes no
  /// parameter gradient and leaves every Parameter::grad as it is. A layer
  /// with parameters skips its weight and bias gradient work; a container
  /// freezes every layer it holds. Freezing changes nothing forward()
  /// caches, so it may start or end between any two calls.
  void freeze() { set_frozen(true); }
  /// Undoes freeze(): from now on backward() accumulates parameter
  /// gradients again, exactly as on a module that was never frozen.
  void thaw() { set_frozen(false); }
  bool frozen() const noexcept { return frozen_; }

  /// Learnable parameters in a stable order (empty for stateless layers).
  /// A view of pointers the module keeps, so walking it never allocates.
  virtual std::span<Parameter* const> parameters() { return {}; }

  virtual std::string name() const = 0;

  /// Zeroes all parameter gradients.
  void zero_grad() {
    for (Parameter* p : parameters()) p->grad.fill(0.0f);
  }

 protected:
  /// Sets the flag backward() reads; a container overrides it to pass the
  /// flag on to every layer it holds.
  virtual void set_frozen(bool frozen) { frozen_ = frozen; }

 private:
  bool frozen_ = false;
};

/// Freezes `module` (see Module::freeze()) for the scope's lifetime and
/// thaws it when the scope ends. ZKA step 1 runs each classifier replica
/// it borrows under one. Scopes on one module do not nest: the inner one's
/// end thaws it.
class FreezeScope {
 public:
  explicit FreezeScope(Module& module) : module_(module) { module_.freeze(); }
  ~FreezeScope() { module_.thaw(); }
  FreezeScope(const FreezeScope&) = delete;
  FreezeScope& operator=(const FreezeScope&) = delete;

 private:
  Module& module_;
};

/// Total number of scalar parameters.
std::int64_t num_params(Module& module);

/// Concatenates all parameter values into one flat vector. This is the FL
/// wire format: clients exchange flat vectors, defenses operate on them.
std::vector<float> get_flat_params(Module& module);
/// Same, into `out` (resized; its storage is reused when large enough).
void get_flat_params(Module& module, std::vector<float>& out);

/// Loads a flat vector produced by get_flat_params back into the module.
/// Throws std::invalid_argument on size mismatch.
void set_flat_params(Module& module, std::span<const float> flat);

/// Concatenates all parameter gradients into one flat vector.
std::vector<float> get_flat_grads(Module& module);

/// Adds `delta` (flat, same layout as get_flat_params) onto the gradients.
/// Used to inject regularizer gradients such as the distance term L_d.
void add_to_flat_grads(Module& module, std::span<const float> delta);

}  // namespace zka::nn
