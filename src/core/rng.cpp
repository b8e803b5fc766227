#include "core/rng.hpp"

#include <cmath>

#include "core/hash.hpp"

namespace ecnd {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += kGoldenGamma;
  return splitmix64_mix(state);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::exponential(double mean) {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::normal(double mean, double stddev) {
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return mean + stddev * z;
}

}  // namespace ecnd
