// Properties that hold for every attack: correct update size, finite values
// (except NaN injection, whose point is non-finite ones), bitwise
// determinism in the construction seed, and rejection of an inconsistent
// round context.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "data/local_sgd.h"
#include "fl/experiment.h"

namespace zka::fl {
namespace {

SimulationConfig config() {
  SimulationConfig c;
  c.num_clients = 15;
  c.clients_per_round = 5;
  c.rounds = 2;
  c.train_size = 150;
  c.test_size = 60;
  c.malicious_fraction = 0.2;
  c.seed = 41;
  return c;
}

core::ZkaOptions zka() {
  core::ZkaOptions z;
  z.synthetic_size = 4;
  z.synthesis_epochs = 2;
  z.latent_dim = 8;
  return z;
}

/// An attack under test: every AttackKind that make_attack builds.
struct AttackCase {
  AttackKind kind;
  bool finite = true;

  std::unique_ptr<attack::Attack> make(const Simulation& sim,
                                       std::uint64_t seed) const {
    return make_attack(kind, sim, zka(), seed);
  }
};

void PrintTo(const AttackCase& c, std::ostream* os) {
  *os << attack_kind_name(c.kind);
}

AttackCase of_kind(AttackKind kind, bool finite = true) {
  return {kind, finite};
}

class AttackProperty : public ::testing::TestWithParam<AttackCase> {
 protected:
  /// A round's models, for the omniscient attacks plausible benign
  /// updates near the global model, and the replicas it lends the attacks
  /// that train a model.
  struct Round {
    std::vector<float> global;
    std::vector<float> prev;
    std::vector<std::vector<float>> benign;
    std::unique_ptr<data::ReplicaSet> replicas =
        std::make_unique<data::ReplicaSet>(
            models::task_model_factory(config().task));

    attack::AttackContext context() const {
      attack::AttackContext ctx;
      ctx.global_model = global;
      ctx.prev_global_model = prev;
      ctx.benign_updates = &benign;
      ctx.num_selected = 5;
      ctx.num_malicious_selected = 1;
      ctx.replicas = replicas.get();
      return ctx;
    }
  };

  static Round make_round() {
    Round r;
    r.global =
        nn::get_flat_params(*models::task_model_factory(config().task)(9));
    r.prev = r.global;
    r.prev[0] += 0.01f;
    r.benign.assign(4, r.global);
    util::Rng rng(99);
    for (auto& u : r.benign) {
      for (auto& w : u) w += static_cast<float>(rng.normal(0.001, 0.01));
    }
    return r;
  }

  std::vector<float> craft_once(std::uint64_t seed) const {
    const Simulation sim(config());
    const auto attack = GetParam().make(sim, seed);
    return attack->craft(make_round().context());
  }
};

TEST_P(AttackProperty, UpdateHasModelSizeAndFiniteValues) {
  const std::vector<float> update = craft_once(7);
  ASSERT_EQ(update.size(), make_round().global.size());
  if (!GetParam().finite) return;
  for (const float v : update) {
    ASSERT_TRUE(std::isfinite(v));
  }
}

TEST_P(AttackProperty, DeterministicInConstructionSeed) {
  const std::vector<float> a = craft_once(7);
  const std::vector<float> b = craft_once(7);
  ASSERT_EQ(a.size(), b.size());
  // Bitwise, so NaN payloads compare too.
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST_P(AttackProperty, NameIsNonEmptyAndStable) {
  const Simulation sim(config());
  const auto attack = GetParam().make(sim, 3);
  EXPECT_FALSE(attack->name().empty());
  EXPECT_EQ(attack->name(), attack->name());
}

TEST_P(AttackProperty, RejectsInconsistentContext) {
  const Simulation sim(config());
  const auto attack = GetParam().make(sim, 3);
  Round round = make_round();
  round.prev.pop_back();
  EXPECT_THROW(attack->craft(round.context()), std::invalid_argument);
}

// The simulator lends its participant replicas to every craft. Two
// successive crafts on lent replicas, each scrambled in parameters, buffers
// and index list before each craft as the caller's own training would
// leave it, must give the bits of the same crafts on freshly built
// replicas.
TEST_P(AttackProperty, LentReplicaMatchesOwnModel) {
  const Simulation sim(config());
  const Round round = make_round();
  const auto own = GetParam().make(sim, 7);
  const auto lent = GetParam().make(sim, 7);
  const models::ImageSpec spec = models::task_spec(config().task);
  const auto rows = static_cast<std::size_t>(sim.malicious_data().size());
  data::ReplicaSet replicas(models::task_model_factory(config().task));
  util::Rng noise(5);
  for (int craft = 0; craft < 2; ++craft) {
    for (std::size_t p = 0; p < replicas.size(); ++p) {
      std::vector<float> scrambled(round.global.size());
      for (auto& w : scrambled) w = static_cast<float>(noise.normal(0.0, 1.0));
      nn::set_flat_params(replicas.model(p), scrambled);
      replicas.model(p).forward(tensor::Tensor::normal(
          {3, spec.channels, spec.height, spec.width}, noise));
      // A shuffled shard, as a client trained on this slot leaves it.
      std::vector<std::int64_t>& indices = replicas.slot(p).indices;
      indices.resize(rows);
      std::iota(indices.begin(), indices.end(), std::int64_t{0});
      noise.shuffle(indices);
    }

    attack::AttackContext ctx = round.context();
    data::ReplicaSet fresh(models::task_model_factory(config().task));
    ctx.replicas = &fresh;
    const std::vector<float> a = own->craft(ctx);
    ctx.replicas = &replicas;
    const std::vector<float> b = lent->craft(ctx);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << "craft " << craft;
  }
}

// Crafting trains a model on the caller's replicas, so the attacks that
// train one reject a context that lends none.
TEST(AttackContextReplicas, ModelTrainingAttacksRequireLentReplicas) {
  const Simulation sim(config());
  const std::vector<float> global =
      nn::get_flat_params(*models::task_model_factory(config().task)(9));
  attack::AttackContext ctx;
  ctx.global_model = global;
  ctx.prev_global_model = global;
  ctx.num_selected = 5;
  ctx.num_malicious_selected = 1;
  for (const AttackKind kind : {AttackKind::kZkaR, AttackKind::kZkaG,
                                AttackKind::kRealData, AttackKind::kLabelFlip}) {
    const auto attack = make_attack(kind, sim, zka(), 7);
    EXPECT_THROW(attack->craft(ctx), std::invalid_argument)
        << attack_kind_name(kind);
  }
}

std::string case_name(const ::testing::TestParamInfo<AttackCase>& info) {
  std::string name = attack_kind_name(info.param.kind);
  for (auto& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllAttacks, AttackProperty,
    ::testing::Values(of_kind(AttackKind::kFang), of_kind(AttackKind::kLie),
                      of_kind(AttackKind::kMinMax),
                      of_kind(AttackKind::kMinSum), of_kind(AttackKind::kZkaR),
                      of_kind(AttackKind::kZkaG),
                      of_kind(AttackKind::kZkaRStatic),
                      of_kind(AttackKind::kZkaGStatic),
                      of_kind(AttackKind::kRealData),
                      of_kind(AttackKind::kRandomWeights),
                      of_kind(AttackKind::kLabelFlip),
                      of_kind(AttackKind::kFreeRider),
                      of_kind(AttackKind::kFangKrum),
                      of_kind(AttackKind::kZkaRAdaptive),
                      of_kind(AttackKind::kZkaGAdaptive)),
    case_name);

// NaN injection emits non-finite values by design; the ingress layer
// (defense/sanitize.h) is what contains it.
INSTANTIATE_TEST_SUITE_P(NaNInjection, AttackProperty,
                         ::testing::Values(of_kind(AttackKind::kNaNInjection,
                                                   /*finite=*/false)),
                         case_name);

}  // namespace
}  // namespace zka::fl
