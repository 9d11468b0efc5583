// Deterministic, splittable random number generation.
//
// Every stochastic component in the library (data synthesis, Dirichlet
// partitioning, client sampling, weight init, attack noise) draws from an
// explicitly seeded `Rng` so that experiments are reproducible bit-for-bit
// given a seed. The engine is xoshiro256**, seeded through SplitMix64 as
// recommended by its authors.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace zka::util {

/// SplitMix64 step; used for seeding and for deriving child seeds.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** pseudo-random engine. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept;

  /// Derives an independent child generator; deterministic in (state, salt).
  /// Used to hand each FL client / attack / round its own stream.
  Rng split(std::uint64_t salt) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;
  /// Standard normal via Box-Muller (cached second value).
  double normal() noexcept;
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;
  /// Gamma(shape, 1) via Marsaglia-Tsang; shape > 0.
  double gamma(double shape) noexcept;
  /// Dirichlet(alpha, ..., alpha) sample of dimension `dim`.
  std::vector<double> dirichlet(double alpha, std::size_t dim) noexcept;
  /// Dirichlet with per-component concentration parameters.
  std::vector<double> dirichlet(const std::vector<double>& alphas) noexcept;

  /// Populations up to this size sample through the partial Fisher-Yates
  /// path below; larger ones switch to Floyd's algorithm. The split keeps
  /// the draw sequences of every existing small-n bench bit-identical
  /// while making production-scale populations O(k).
  static constexpr std::size_t kDenseSampleMax = 4096;

  /// k distinct indices drawn uniformly from [0, n). For n <=
  /// kDenseSampleMax this is a partial Fisher-Yates shuffle (O(n) memory,
  /// seed-compatible with historical runs); above it, Floyd's hash-set
  /// algorithm draws the same uniform subsets in O(k) time and memory —
  /// at n = 10^6 the old path allocated and touched an 8 MB pool per
  /// round. Both paths are deterministic in (state, n, k); they consume
  /// different numbers of engine draws, so the two regimes are not
  /// cross-compatible streams.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);
  /// The same draw into `out`, which ends holding the k indices. It is
  /// also the draw's working space (n entries on the Fisher-Yates path,
  /// about 3k on Floyd's), so a kept `out` makes a repeated draw
  /// allocation-free. Index is std::size_t or std::int64_t.
  template <typename Index>
  void sample_without_replacement(std::size_t n, std::size_t k,
                                  std::vector<Index>& out);

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = uniform_index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace zka::util
