#include "util/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace zka::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

Rng Rng::split(std::uint64_t salt) noexcept {
  // Mix a fresh draw with the salt so different salts (and different parent
  // states) give independent streams.
  std::uint64_t s = (*this)() ^ (salt * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15ULL);
  return Rng{splitmix64(s)};
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  assert(n > 0);
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::gamma(double shape) noexcept {
  assert(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia-Tsang trick).
    const double u = uniform();
    return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

std::vector<double> Rng::dirichlet(double alpha, std::size_t dim) noexcept {
  return dirichlet(std::vector<double>(dim, alpha));
}

std::vector<double> Rng::dirichlet(const std::vector<double>& alphas) noexcept {
  std::vector<double> sample(alphas.size());
  double total = 0.0;
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    sample[i] = gamma(alphas[i]);
    total += sample[i];
  }
  if (total <= 0.0) {
    // Degenerate draw (all-zero gammas): fall back to uniform proportions.
    for (auto& s : sample) s = 1.0 / static_cast<double>(sample.size());
    return sample;
  }
  for (auto& s : sample) s /= total;
  return sample;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  std::vector<std::size_t> sample;
  sample_without_replacement(n, k, sample);
  return sample;
}

template <typename Index>
void Rng::sample_without_replacement(std::size_t n, std::size_t k,
                                     std::vector<Index>& out) {
  assert(k <= n);
  if (n <= kDenseSampleMax) {
    // Partial Fisher-Yates over a materialized pool. Kept for small
    // populations so historical seeds reproduce the exact same client
    // selections (the committed reference benches depend on them).
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<Index>(i);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + uniform_index(n - i);
      std::swap(out[i], out[j]);
    }
    out.resize(k);
    return;
  }
  // Floyd's algorithm: for j = n-k .. n-1 draw t ~ U[0, j]; take t unless
  // already taken, else take j. Every k-subset is equally likely, and cost
  // is O(k) regardless of n. The order is the insertion order, which is
  // deterministic in the engine state (it is *not* a uniformly random
  // permutation of the subset — callers that need one shuffle the result).
  // "Already taken" is an open-addressing set of at least 2k slots kept in
  // `out` behind the sample; n marks an empty slot.
  int bits = 1;
  while ((std::size_t{1} << bits) < 2 * k) ++bits;
  const std::size_t slots = std::size_t{1} << bits;
  out.assign(k + slots, static_cast<Index>(n));
  Index* const taken = out.data() + k;
  // Inserts `v` unless present; returns whether it was absent.
  const auto insert = [&](std::size_t v) {
    std::size_t h = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ULL) >>
        (64 - bits));
    for (;; h = (h + 1) & (slots - 1)) {
      if (taken[h] == static_cast<Index>(v)) return false;
      if (taken[h] == static_cast<Index>(n)) {
        taken[h] = static_cast<Index>(v);
        return true;
      }
    }
  };
  for (std::size_t j = n - k, i = 0; j < n; ++j, ++i) {
    const std::size_t t =
        static_cast<std::size_t>(uniform_index(static_cast<std::uint64_t>(j) + 1));
    std::size_t pick = t;
    if (!insert(t)) {
      pick = j;  // j exceeds every earlier pick, so it is free
      insert(j);
    }
    out[i] = static_cast<Index>(pick);
  }
  out.resize(k);
}

template void Rng::sample_without_replacement(std::size_t, std::size_t,
                                              std::vector<std::size_t>&);
template void Rng::sample_without_replacement(std::size_t, std::size_t,
                                              std::vector<std::int64_t>&);

}  // namespace zka::util
