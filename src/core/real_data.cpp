#include "core/real_data.h"

namespace zka::core {

RealDataAttack::RealDataAttack(models::Task task, data::Dataset dataset,
                               ZkaOptions options, std::uint64_t seed)
    : ZkaAttack(task, options, seed, nullptr, nullptr),
      dataset_(std::move(dataset)) {}

}  // namespace zka::core
