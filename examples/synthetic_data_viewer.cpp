// Peek inside the attack: render the benchmark class prototypes and the
// malicious images ZKA-R / ZKA-G synthesize from a fresh global model, as
// ASCII art. Also prints what the global model predicts for each image —
// ZKA-R images should look maximally ambiguous, ZKA-G images should avoid
// the decoy class.
//
//   ./synthetic_data_viewer [--variant zka-r|zka-g] [--count N]
#include <cstdio>

#include "core/zka_g.h"
#include "core/zka_r.h"
#include "data/local_sgd.h"
#include "data/synthetic.h"
#include "nn/loss.h"
#include "util/cli.h"

namespace {

using namespace zka;

void render_ascii(const tensor::Tensor& images, std::int64_t index,
                  const models::ImageSpec& spec) {
  static const char* kRamp = " .:-=+*#%@";
  // Average channels down to a luminance plane, downsample 2x for width.
  const std::int64_t plane = spec.height * spec.width;
  // Read-only ASCII rendering over the packed layout
  const float* base = images.raw() + index * spec.channels * plane;
  for (std::int64_t y = 0; y < spec.height; y += 2) {
    for (std::int64_t x = 0; x < spec.width; ++x) {
      float v = 0.0f;
      for (std::int64_t c = 0; c < spec.channels; ++c) {
        v += base[c * plane + y * spec.width + x];
      }
      v /= static_cast<float>(spec.channels);       // [-1, 1]
      const int level = static_cast<int>((v + 1.0f) * 4.999f);
      std::putchar(kRamp[std::clamp(level, 0, 9)]);
    }
    std::putchar('\n');
  }
}

void print_prediction(nn::Sequential& model, const tensor::Tensor& images,
                      std::int64_t index) {
  const std::int64_t one[] = {index};
  const tensor::Tensor probs =
      nn::softmax_rows(model.forward(images.index_select0(one)));
  std::printf("prediction: ");
  for (std::int64_t k = 0; k < probs.dim(1); ++k) {
    std::printf("%.2f ", probs[k]);
  }
  std::printf(" (max class %lld, p=%.2f)\n\n",
              static_cast<long long>(probs.argmax()), probs.max());
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const std::string variant = args.get_string("variant", "zka-r");
  const std::int64_t count = args.get_int64("count", 3);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int64("seed", 4));

  const models::Task task = models::Task::kFashion;
  const models::ImageSpec spec = models::task_spec(task);

  std::printf("== Benchmark class prototypes (SynthFashion) ==\n");
  for (std::int64_t label = 0; label < 3; ++label) {
    std::printf("class %lld prototype:\n", static_cast<long long>(label));
    render_ascii(data::class_prototype(task, label), 0, spec);
    std::printf("\n");
  }

  const auto factory = models::task_model_factory(task);
  auto model = factory(seed);
  const std::vector<float> global = nn::get_flat_params(*model);
  // The classifier replicas the attack crafts on.
  data::ReplicaSet replicas(factory);

  attack::AttackContext ctx;
  ctx.global_model = global;
  ctx.prev_global_model = global;
  ctx.num_selected = 10;
  ctx.num_malicious_selected = 2;
  ctx.replicas = &replicas;

  core::ZkaOptions zka;
  zka.synthetic_size = count;
  zka.synthesis_epochs = 8;

  std::unique_ptr<core::ZkaAttack> attack;
  if (variant == "zka-g") {
    attack = std::make_unique<core::ZkaGAttack>(task, zka, seed);
  } else {
    attack = std::make_unique<core::ZkaRAttack>(task, zka, seed);
  }
  attack->craft(ctx);
  const tensor::Tensor& images = attack->last_synthetic_images();
  const std::int64_t decoy = attack->decoy_label();

  std::printf("== %s synthetic images (decoy label Ỹ = %lld) ==\n",
              attack->name().c_str(), static_cast<long long>(decoy));
  nn::set_flat_params(*model, global);
  for (std::int64_t i = 0; i < count; ++i) {
    std::printf("synthetic image %lld:\n", static_cast<long long>(i));
    render_ascii(images, i, spec);
    print_prediction(*model, images, i);
  }
  std::printf(
      "ZKA-R images aim for a flat prediction vector (ambiguity); ZKA-G "
      "images aim for low probability on the decoy class %lld.\n",
      static_cast<long long>(decoy));
  return 0;
}
