#include "models/models.h"

#include <stdexcept>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/flatten.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "util/rng.h"

namespace zka::models {

ImageSpec fashion_spec() noexcept { return ImageSpec{1, 28, 28, 10}; }
ImageSpec cifar_spec() noexcept { return ImageSpec{3, 32, 32, 10}; }

std::unique_ptr<nn::Sequential> make_fashion_cnn(util::Rng& rng) {
  const ImageSpec spec = fashion_spec();
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(spec.channels, 8, 3, 1, 1, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2);
  net->emplace<nn::Conv2d>(8, 16, 3, 1, 1, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2);
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(16 * (spec.height / 4) * (spec.width / 4),
                           spec.num_classes, rng);
  return net;
}

std::unique_ptr<nn::Sequential> make_cifar_cnn(util::Rng& rng) {
  const ImageSpec spec = cifar_spec();
  auto net = std::make_unique<nn::Sequential>();
  // Block 1.
  net->emplace<nn::Conv2d>(spec.channels, 8, 3, 1, 1, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Conv2d>(8, 8, 3, 1, 1, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2);
  // Block 2.
  net->emplace<nn::Conv2d>(8, 16, 3, 1, 1, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Conv2d>(16, 16, 3, 1, 1, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2);
  // Block 3.
  net->emplace<nn::Conv2d>(16, 32, 3, 1, 1, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Conv2d>(32, 32, 3, 1, 1, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool2d>(2);
  // Dense head (2 layers).
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(32 * (spec.height / 8) * (spec.width / 8), 64, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Linear>(64, spec.num_classes, rng);
  return net;
}

std::unique_ptr<nn::Sequential> make_filter_layer(const ImageSpec& spec,
                                                  std::int64_t kernel,
                                                  util::Rng& rng) {
  if (kernel % 2 == 0) {
    throw std::invalid_argument("filter layer kernel must be odd");
  }
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(spec.channels, spec.channels, kernel, 1,
                           (kernel - 1) / 2, rng);
  return net;
}

void redraw_filter_layer(nn::Sequential& filter, util::Rng& rng) {
  dynamic_cast<nn::Conv2d&>(filter.layer(0)).reset_parameters(rng);
}

std::unique_ptr<nn::Sequential> make_tcnn_generator(const ImageSpec& spec,
                                                    std::int64_t latent_dim,
                                                    util::Rng& rng) {
  if (spec.height % 4 != 0 || spec.width % 4 != 0) {
    throw std::invalid_argument(
        "generator needs height/width divisible by 4");
  }
  const std::int64_t h0 = spec.height / 4;
  const std::int64_t w0 = spec.width / 4;
  const std::int64_t base = 32;
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Linear>(latent_dim, base * h0 * w0, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Unflatten>(base, h0, w0);
  net->emplace<nn::ConvTranspose2d>(base, base / 2, 4, 2, 1, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::ConvTranspose2d>(base / 2, base / 4, 4, 2, 1, rng);
  net->emplace<nn::ReLU>();
  net->emplace<nn::Conv2d>(base / 4, spec.channels, 3, 1, 1, rng);
  net->emplace<nn::Tanh>();
  return net;
}

const char* task_name(Task task) noexcept {
  return task == Task::kFashion ? "Fashion" : "Cifar";
}

ImageSpec task_spec(Task task) noexcept {
  return task == Task::kFashion ? fashion_spec() : cifar_spec();
}

ModelFactory task_model_factory(Task task) {
  return [task](std::uint64_t seed) {
    util::Rng rng(seed);
    return task == Task::kFashion ? make_fashion_cnn(rng)
                                  : make_cifar_cnn(rng);
  };
}

}  // namespace zka::models
