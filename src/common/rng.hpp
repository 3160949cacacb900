// Deterministic random number generation.
//
// Every stochastic component in the system takes an explicit Rng so that runs
// are reproducible given a seed, and so that parallel workers can be handed
// independent, non-overlapping streams (Rng::split).
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace essns {

/// splitmix64: used to seed xoshiro and to derive child streams.
/// Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators" (OOPSLA 2014).
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97f4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Order-sensitive seed combiner (hash_combine-style feed into splitmix64):
/// fold `value` into `state` to derive an independent child seed. Chaining
/// calls keeps every (state, value) pair on its own stream — the catalog and
/// campaign layers use this to give each generated workload and each job a
/// collision-resistant seed that is a pure function of its coordinates.
inline std::uint64_t combine_seed(std::uint64_t state, std::uint64_t value) {
  std::uint64_t s =
      state ^ (value + 0x9E3779B97f4A7C15ULL + (state << 6) + (state >> 2));
  return splitmix64(s);
}

/// xoshiro256** generator (Blackman & Vigna). Satisfies
/// UniformRandomBitGenerator so it can also feed <random> distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853C49E6748FEA9BULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
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

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] (inclusive). Debiased via rejection.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
    const std::uint64_t limit = max() - max() % span;
    std::uint64_t draw;
    do {
      draw = (*this)();
    } while (draw >= limit);
    return lo + static_cast<std::int64_t>(draw % span);
  }

  /// Standard normal via Marsaglia polar method.
  double normal() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    have_spare_ = true;
    return u * factor;
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// True with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Same state: the two streams draw the same values from here on.
  friend bool operator==(const Rng&, const Rng&) = default;

  /// Derive an independent child stream; deterministic in (parent state, salt).
  Rng split(std::uint64_t salt) {
    std::uint64_t mix = (*this)() ^ (salt * 0x9E3779B97f4A7C15ULL);
    return Rng(splitmix64(mix));
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
  bool have_spare_ = false;
  double spare_ = 0.0;
};

}  // namespace essns
