// Deterministic, seedable random number generation and stable hashing.
//
// Every stochastic component in the simulator (synthetic language model,
// arrival traces, speculative-sampling verification) draws from explicitly
// seeded streams so that an entire experiment is reproducible bit-for-bit.
// The generator is xoshiro256**, seeded through SplitMix64; hashing uses a
// SplitMix64-based mix so that context hashes are stable across platforms
// (std::hash makes no such guarantee).
#ifndef ADASERVE_SRC_COMMON_RNG_H_
#define ADASERVE_SRC_COMMON_RNG_H_

#include <cstdint>
#include <span>

#include "src/common/types.h"

namespace adaserve {

// SplitMix64's state increment (the golden-ratio constant).
inline constexpr uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

// Mixes `x` in place (Stafford variant 13 finalizer). A template so that
// vector kernels apply the same finalizer to every lane of a GCC/Clang
// vector of uint64_t; by reference, as wide vectors passed by value change
// the calling convention.
template <typename U>
inline void Mix64InPlace(U& x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x = x ^ (x >> 31);
}

// Mixes a single 64-bit value.
inline uint64_t Mix64(uint64_t x) {
  Mix64InPlace(x);
  return x;
}

// SplitMix64 step; also the core of our stable hash mixing. The k-th
// output from state s is Mix64(s + k * kSplitMixGamma).
inline uint64_t SplitMix64(uint64_t& state) {
  state += kSplitMixGamma;
  return Mix64(state);
}

// Combines a hash with a new value, order-sensitive.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return Mix64(seed ^ (value + kSplitMixGamma + (seed << 6) + (seed >> 2)));
}

// Stable hash of a token span with a stream seed. Used to key the synthetic
// language model's next-token distribution on (stream, context window).
uint64_t HashTokens(uint64_t seed, std::span<const Token> tokens);

// xoshiro256** 1.0 generator. Small, fast, and with well-understood
// statistical quality; good enough for simulation workloads.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform in [0, 2^64).
  uint64_t NextU64();

  // Uniform double in [0, 1).
  double Uniform();

  // Uniform integer in [0, bound). Requires bound > 0.
  uint64_t UniformInt(uint64_t bound);

  // Exponential with the given rate (mean 1/rate). Requires rate > 0.
  double Exponential(double rate);

  // Standard normal via Box-Muller (no cached spare; keeps state minimal).
  double Normal();

  // Normal with mean/stddev.
  double Normal(double mean, double stddev);

  // Lognormal parameterised by the mean/stddev of the underlying normal.
  double LogNormal(double log_mean, double log_stddev);

  // Splits off an independent generator. The child stream is a pure function
  // of the parent state and `salt`, so splitting is reproducible.
  Rng Split(uint64_t salt) const;

 private:
  uint64_t s_[4];
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_COMMON_RNG_H_
