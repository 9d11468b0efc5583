#include <stdexcept>

#include "defense/aggregator.h"
#include "defense/bulyan.h"
#include "defense/centered_clip.h"
#include "defense/dnc.h"
#include "defense/fedavg.h"
#include "defense/foolsgold.h"
#include "defense/geometric_median.h"
#include "defense/krum.h"
#include "defense/norm_clip.h"
#include "defense/statistic.h"

namespace zka::defense {

std::unique_ptr<Aggregator> make_aggregator(const std::string& name,
                                            const AggregatorOptions& options) {
  const std::size_t f = options.num_byzantine;
  const SketchOptions sketch{options.sketch_dim, options.sketch_seed,
                             options.recheck_band};
  if (name == "fedavg") return std::make_unique<FedAvg>();
  if (name == "median") {
    return std::make_unique<Median>(options.memory_budget_bytes);
  }
  if (name == "trmean") {
    return std::make_unique<TrimmedMean>(f, options.memory_budget_bytes);
  }
  if (name == "krum") {
    return std::make_unique<MultiKrum>(f, 1, /*iterative=*/false, sketch);
  }
  if (name == "mkrum") {
    return std::make_unique<MultiKrum>(f, 0, /*iterative=*/false, sketch);
  }
  if (name == "bulyan") return std::make_unique<Bulyan>(f, sketch);
  if (name == "foolsgold") return std::make_unique<FoolsGold>();
  if (name == "normclip") return std::make_unique<NormClipping>();
  if (name == "geomedian") return std::make_unique<GeometricMedian>();
  if (name == "centeredclip") return std::make_unique<CenteredClipping>();
  if (name == "dnc") {
    DncOptions dnc;
    dnc.num_byzantine = f;
    return std::make_unique<Dnc>(dnc);
  }
  if (name == "fltrust") {
    throw std::invalid_argument(
        "fltrust needs a root dataset: construct defense::FlTrust directly "
        "and pass it via SimulationConfig::custom_defense");
  }
  throw std::invalid_argument("unknown aggregator: " + name);
}

}  // namespace zka::defense
