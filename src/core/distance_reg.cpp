#include "core/distance_reg.h"

#include <cmath>

#include "util/check.h"
#include "util/stats.h"

namespace zka::core {

double DistanceRegularizer::value(std::span<const float> w,
                                  std::span<const float> global,
                                  std::span<const float> prev_global) {
  ZKA_CHECK(w.size() == global.size() && global.size() == prev_global.size(),
            "DistanceRegularizer: w=%zu, global=%zu, prev=%zu params",
            w.size(), global.size(), prev_global.size());
  return util::l2_distance(w, global) -
         util::l2_distance(global, prev_global);
}

double DistanceRegularizer::apply(nn::Module& model,
                                  std::span<const float> global,
                                  std::span<const float> prev_global,
                                  std::vector<float>& scratch) const {
  if (lambda_ == 0.0) return 0.0;
  std::vector<float>& w = scratch;
  nn::get_flat_params(model, w);
  ZKA_CHECK(w.size() == global.size() && global.size() == prev_global.size(),
            "DistanceRegularizer: model=%zu, global=%zu, prev=%zu params",
            w.size(), global.size(), prev_global.size());
  const double dist = util::l2_distance(w, global);
  if (dist > 1e-12) {
    const double scale = lambda_ / dist;
    for (std::size_t i = 0; i < w.size(); ++i) {
      // Subtract in float (the wire precision), then promote explicitly:
      // the scale factor carries the double path. The gradient overwrites
      // w in place; w[i] is read only here.
      w[i] = static_cast<float>(scale * static_cast<double>(w[i] - global[i]));
    }
    nn::add_to_flat_grads(model, w);
  }
  return lambda_ * (dist - util::l2_distance(global, prev_global));
}

}  // namespace zka::core
