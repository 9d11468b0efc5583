// Model zoo: the paper's two classifiers, ZKA-R's filter layer and
// ZKA-G's TCNN generator, plus a factory abstraction used by the FL
// simulator and the attacks to materialize a classifier from a flat
// parameter vector.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "nn/sequential.h"

namespace zka::util {
class Rng;
}

namespace zka::models {

/// Task geometry shared by data synthesis, models, and attacks.
struct ImageSpec {
  std::int64_t channels = 1;
  std::int64_t height = 28;
  std::int64_t width = 28;
  std::int64_t num_classes = 10;

  std::int64_t pixels() const noexcept { return channels * height * width; }
};

/// 28x28 grayscale, 10 classes (the Fashion-MNIST stand-in).
ImageSpec fashion_spec() noexcept;
/// 32x32 RGB, 10 classes (the CIFAR-10 stand-in).
ImageSpec cifar_spec() noexcept;

/// The paper's Fashion-MNIST network: 2 conv layers + 1 dense layer.
/// conv(1->8) - relu - pool - conv(8->16) - relu - pool - fc(10).
std::unique_ptr<nn::Sequential> make_fashion_cnn(util::Rng& rng);

/// The paper's CIFAR-10 network: 6 conv layers + 2 dense layers
/// (three conv-conv-pool blocks, then fc-relu-fc).
std::unique_ptr<nn::Sequential> make_cifar_cnn(util::Rng& rng);

/// ZKA-R's trainable filter: a single same-padded JxJ convolution mapping a
/// random image A to the synthetic image B (Fig. 2 of the paper).
std::unique_ptr<nn::Sequential> make_filter_layer(const ImageSpec& spec,
                                                  std::int64_t kernel,
                                                  util::Rng& rng);

/// Re-draws a make_filter_layer() filter's parameters in place from `rng`:
/// the weight make_filter_layer(spec, kernel, rng) would draw, zero bias.
void redraw_filter_layer(nn::Sequential& filter, util::Rng& rng);

/// ZKA-G's generator: latent vector -> dense -> two stride-2 transposed
/// convolutions -> one convolution -> tanh (Fig. 3; WGAN-style TCNN).
/// Requires spec height/width divisible by 4.
std::unique_ptr<nn::Sequential> make_tcnn_generator(const ImageSpec& spec,
                                                    std::int64_t latent_dim,
                                                    util::Rng& rng);

/// Builds a classifier for the task, seeded deterministically.
using ModelFactory =
    std::function<std::unique_ptr<nn::Sequential>(std::uint64_t seed)>;

/// The two benchmark tasks.
enum class Task { kFashion, kCifar };

const char* task_name(Task task) noexcept;
ImageSpec task_spec(Task task) noexcept;
ModelFactory task_model_factory(Task task);

}  // namespace zka::models
