#include "src/model/synthetic_lm.h"

#include <algorithm>
#include <cmath>

#include "src/common/arena.h"
#include "src/common/logging.h"

namespace adaserve {

SyntheticLm::SyntheticLm(const LmConfig& config) : config_(config) {
  ADASERVE_CHECK(config_.vocab_size > 1) << "vocab too small";
  ADASERVE_CHECK(config_.support > 0 && config_.support <= config_.vocab_size)
      << "bad support size";
  ADASERVE_CHECK(config_.context_order >= 1) << "context order must be >= 1";
  ADASERVE_CHECK(config_.weight_jitter >= 0.0 && config_.weight_jitter < 1.0)
      << "jitter must be in [0, 1)";
  zipf_.reserve(static_cast<size_t>(config_.support));
  for (int i = 0; i < config_.support; ++i) {
    zipf_.push_back(std::pow(static_cast<double>(i + 1), -config_.zipf_exponent));
  }
}

SparseDist SyntheticLm::NextDist(uint64_t stream, std::span<const Token> context) const {
  // Key the distribution on the trailing window only; this bounds hashing
  // cost and mimics the short effective memory of n-gram statistics.
  const size_t order = static_cast<size_t>(config_.context_order);
  const size_t start = context.size() > order ? context.size() - order : 0;
  uint64_t h = HashCombine(Mix64(config_.seed), stream);
  h = HashCombine(h, HashTokens(config_.seed, context.subspan(start)));

  // Inline scratch: the support is a few dozen tokens, so building the
  // weight list must not hit the heap on this per-token hot path.
  SmallVector<Token, SparseDist::kInlineSupport> tokens;
  SmallVector<double, SparseDist::kInlineSupport> weights;
  uint64_t pick_state = h;
  for (int i = 0; i < config_.support; ++i) {
    // Derive the i-th support token and its jitter from the hash stream.
    const uint64_t r1 = SplitMix64(pick_state);
    const uint64_t r2 = SplitMix64(pick_state);
    const auto token = static_cast<Token>(r1 % static_cast<uint64_t>(config_.vocab_size));
    const double jitter_u = static_cast<double>(r2 >> 11) * 0x1.0p-53;
    const double jitter = 1.0 + config_.weight_jitter * (2.0 * jitter_u - 1.0);
    tokens.push_back(token);
    weights.push_back(zipf_[static_cast<size_t>(i)] * jitter);
  }
  return SparseDist::FromWeights({tokens.data(), tokens.size()},
                                 {weights.data(), weights.size()});
}

SparseDist SyntheticLm::NextDist(uint64_t stream, std::span<const Token> context,
                                 std::span<const Token> suffix) const {
  const size_t order = static_cast<size_t>(config_.context_order);
  const std::span<const Token> from_suffix = suffix.last(std::min(order, suffix.size()));
  const std::span<const Token> from_context =
      context.last(std::min(order - from_suffix.size(), context.size()));
  SmallVector<Token, 8> window;
  for (Token t : from_context) {
    window.push_back(t);
  }
  for (Token t : from_suffix) {
    window.push_back(t);
  }
  return NextDist(stream, {window.data(), window.size()});
}

}  // namespace adaserve
