#include "src/common/rng.h"

#include <cmath>
#include <numbers>

namespace adaserve {
namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t HashTokens(uint64_t seed, std::span<const Token> tokens) {
  uint64_t h = Mix64(seed ^ 0xadaceede5e4e5e4eULL);
  for (Token t : tokens) {
    h = HashCombine(h, static_cast<uint64_t>(static_cast<uint32_t>(t)));
  }
  return h;
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53-bit mantissa conversion; result in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  // Lemire's multiply-shift rejection method.
  uint64_t x = NextU64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<uint64_t>(m);
  if (lo < bound) {
    const uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = NextU64();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::Exponential(double rate) {
  double u = Uniform();
  // Guard against log(0).
  if (u <= 0.0) {
    u = 0x1.0p-53;
  }
  return -std::log(1.0 - u) / rate;
}

double Rng::Normal() {
  double u1 = Uniform();
  if (u1 <= 0.0) {
    u1 = 0x1.0p-53;
  }
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

double Rng::LogNormal(double log_mean, double log_stddev) {
  return std::exp(Normal(log_mean, log_stddev));
}

Rng Rng::Split(uint64_t salt) const {
  uint64_t h = Mix64(salt);
  for (uint64_t s : s_) {
    h = HashCombine(h, s);
  }
  return Rng(h);
}

}  // namespace adaserve
