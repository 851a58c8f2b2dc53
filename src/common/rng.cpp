#include "common/rng.hpp"

#include <cmath>

namespace sm::common {

namespace {

uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t splitmix64(uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

uint64_t Rng::next() {
  uint64_t result = rotl(state_[1] * 5, 7) * 9;
  uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

uint64_t Rng::bounded(uint64_t bound) {
  if (bound == 0) return 0;
  // Lemire's nearly-divisionless method.
  uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t threshold = -bound % bound;
    while (l < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::uniform_int(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  bounded(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::uniform() {
  // 53 random bits into the mantissa.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * uniform();
}

bool Rng::chance(double p) { return uniform() < p; }

double Rng::exponential(double lambda) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

std::string Rng::alnum_string(size_t length) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string out;
  out.reserve(length);
  for (size_t i = 0; i < length; ++i)
    out.push_back(kAlphabet[bounded(sizeof(kAlphabet) - 1)]);
  return out;
}

Rng Rng::fork() { return Rng(next() ^ 0xA5A5A5A5A5A5A5A5ULL); }

}  // namespace sm::common
