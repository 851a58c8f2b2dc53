// Deterministic pseudo-random number generation.
//
// Every stochastic component in the simulator draws from an explicitly
// seeded Rng so that runs are exactly reproducible. The core generator is
// xoshiro256** (Blackman & Vigna), which is fast, passes BigCrush, and has
// a 256-bit state that we seed with splitmix64.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sm::common {

/// One SplitMix64 step: advances `state` and returns the next output.
/// This is the generator used to expand seeds (Rng's constructor and the
/// campaign runner's per-trial substream derivation both use it), kept
/// public so every seed-derivation site shares one definition.
uint64_t splitmix64(uint64_t& state);

/// xoshiro256** generator with convenience distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eed5eed5eed5eedULL);

  /// Uniform 64-bit value.
  uint64_t next();

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  uint64_t bounded(uint64_t bound);

  /// Uniform integer in the inclusive range [lo, hi].
  int64_t uniform_int(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial.
  bool chance(double p);

  /// Exponential with rate lambda (mean 1/lambda). Used for Poisson
  /// arrival processes in the traffic generators.
  double exponential(double lambda);

  /// Random alphanumeric string of the given length.
  std::string alnum_string(size_t length);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = bounded(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Pick a uniformly random element (container must be non-empty).
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[bounded(v.size())];
  }

  /// Fork a statistically independent child generator (for giving each
  /// simulated host its own stream while preserving determinism).
  Rng fork();

 private:
  uint64_t state_[4];
};

}  // namespace sm::common
