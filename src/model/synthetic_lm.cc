#include "src/model/synthetic_lm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

#include "src/common/arena.h"
#include "src/common/logging.h"
#include "src/model/dist_kernels.h"

namespace adaserve {

namespace dist_kernels {
namespace {

// DrawSupport at kLanes slots per step. Slot i's draws are the SplitMix64
// outputs Mix64(h + (2i + 1) * gamma) and Mix64(h + (2i + 2) * gamma), so
// a step mixes and jitters kLanes slots lane-wise; only the modulo by the
// vocabulary is scalar.
template <size_t kLanes>
[[gnu::always_inline]] inline void DrawBody(uint64_t h, uint64_t vocab_size, double jitter,
                                            std::span<const double> zipf, TokenScratch& tokens,
                                            WeightScratch& weights) {
  using U64Lanes = Lanes<uint64_t, kLanes>;
  using ProbLanes = Lanes<double, kLanes>;
  U64Lanes state = {};  // Before slot k's first draw.
  for (size_t k = 0; k < kLanes; ++k) {
    state[k] = h + 2 * k * kSplitMixGamma;
  }
  for (size_t i = 0; i < zipf.size(); i += kLanes) {
    U64Lanes r1 = state + kSplitMixGamma;
    U64Lanes r2 = state + 2 * kSplitMixGamma;
    Mix64InPlace(r1);
    Mix64InPlace(r2);
    state += 2 * kLanes * kSplitMixGamma;
    const size_t slots = std::min(kLanes, zipf.size() - i);
    ProbLanes zipf_lanes = {};
    if (slots == kLanes) {
      std::memcpy(&zipf_lanes, &zipf[i], sizeof(ProbLanes));
    } else {
      for (size_t k = 0; k < slots; ++k) {
        zipf_lanes[k] = zipf[i + k];
      }
    }
    // r2 >> 11 is below 2^53: signed, and exact as a double.
    const auto top53 = __builtin_convertvector(r2 >> 11, Lanes<int64_t, kLanes>);
    const ProbLanes u = __builtin_convertvector(top53, ProbLanes) * 0x1.0p-53;
    const ProbLanes w = zipf_lanes * (1.0 + jitter * (2.0 * u - 1.0));
    for (size_t k = 0; k < slots; ++k) {
      tokens.push_back(static_cast<Token>(r1[k] % vocab_size));
      weights.push_back(w[k]);
    }
  }
}

#if ADASERVE_WIDE_KERNELS
[[gnu::target("arch=x86-64-v4")]] void DrawSupportWide(uint64_t h, uint64_t vocab_size,
                                                       double jitter, std::span<const double> zipf,
                                                       TokenScratch& tokens,
                                                       WeightScratch& weights) {
  DrawBody<8>(h, vocab_size, jitter, zipf, tokens, weights);
}
#endif

}  // namespace

void DrawSupport([[maybe_unused]] Width width, uint64_t h, uint64_t vocab_size, double jitter,
                 std::span<const double> zipf, TokenScratch& tokens, WeightScratch& weights) {
#if ADASERVE_WIDE_KERNELS
  if (width == Width::kWide) {
    DrawSupportWide(h, vocab_size, jitter, zipf, tokens, weights);
    return;
  }
#endif
  // One lane: SSE2 has no 64-bit lane multiply, so two lanes would cost
  // more than two scalar mixes.
  DrawBody<1>(h, vocab_size, jitter, zipf, tokens, weights);
}

}  // namespace dist_kernels

SyntheticLm::SyntheticLm(const LmConfig& config) : config_(config) {
  ADASERVE_CHECK(config_.vocab_size > 1) << "vocab too small";
  ADASERVE_CHECK(config_.support > 0 && config_.support <= config_.vocab_size)
      << "bad support size";
  ADASERVE_CHECK(config_.context_order >= 1) << "context order must be >= 1";
  ADASERVE_CHECK(config_.weight_jitter >= 0.0 && config_.weight_jitter < 1.0)
      << "jitter must be in [0, 1)";
  const auto support = static_cast<size_t>(config_.support);
  zipf_.reserve(support);
  for (size_t i = 0; i < support; ++i) {
    zipf_.push_back(std::pow(static_cast<double>(i + 1), -config_.zipf_exponent));
  }

  // Which slots can reach a head. Slot i's drawn weight is
  // zipf[i] * f(u), f(u) = 1 + jitter * (2u - 1) for u in [0, 1 - 2^-53]
  // (DrawSupport). Each rounded step of f and of the product is monotone in
  // u, so every drawn weight of slot i lies in [lo_i, hi_i], the rounded
  // weights at u = 0 and u = 1 - 2^-53. Slot t outweighs slot s on every
  // draw when lo_t > hi_s * (1 + kMargin) and lo_s >= total * 2^-900, with
  // `total` the largest total weight. Then, for any draw:
  //   - w_t > w_s * (1 + kMargin) * (1 - 2^-53), and
  //   - NextDist's prob w / T, and a draft mixture's c * w / T for any
  //     factor c in [2^-53, 1], are two more roundings of each weight, each
  //     within a relative 2^-53, since the floor on lo_s (and c >= 2^-53)
  //     keeps every value normal. kMargin outlasts all of them, so slot t's
  //     scaled entry has a strictly higher prob than slot s's. The mixture
  //     scales the noise by c = 1 - fidelity (at least 2^-53 when
  //     positive) and the target by c = fidelity (DraftLm::NextHead takes
  //     the bounded path only for fidelity >= 2^-53); c = 1 is the target
  //     distribution itself.
  // So if n slots outweigh slot s, n entries of the sorted mixture come
  // before s's entry, and the n-th entry's prob, at least the lowest of
  // theirs, is strictly above s's: s can neither enter the first n nor tie
  // the n-th, whose tie group ExpandNode reads past the cut
  // (ExtensionCut). Leaving such slots out keeps the first n entries and
  // their order: a head entry's position counts only the entries before
  // it, all of them in the head. The Zipf table is not assumed monotone:
  // outweighing is counted over every pair.
  constexpr double kMargin = 1e-9;
  const double jitter = config_.weight_jitter;
  const double f_lo = 1.0 + jitter * (2.0 * 0.0 - 1.0);
  const double f_hi = 1.0 + jitter * (2.0 * (1.0 - 0x1.0p-53) - 1.0);
  std::vector<double> lows;
  double total = 0.0;
  for (const double z : zipf_) {
    lows.push_back(z * f_lo);
    total += z * f_hi;
  }
  std::vector<double> sorted_lows = lows;
  std::sort(sorted_lows.begin(), sorted_lows.end());
  std::vector<size_t> outweighed_by(support, 0);
  for (size_t s = 0; s < support; ++s) {
    if (lows[s] >= total * 0x1.0p-900) {
      const double bar = zipf_[s] * f_hi * (1.0 + kMargin);
      outweighed_by[s] = static_cast<size_t>(
          sorted_lows.end() - std::upper_bound(sorted_lows.begin(), sorted_lows.end(), bar));
    }
    head_slots_.push_back(static_cast<uint32_t>(s));
  }
  std::sort(head_slots_.begin(), head_slots_.end(), [&](uint32_t x, uint32_t y) {
    return std::pair(outweighed_by[x], x) < std::pair(outweighed_by[y], y);
  });
  // head_reach_[n] counts the slots fewer than n slots outweigh. At most
  // support - 1 slots outweigh any slot, so n = support keeps them all.
  head_reach_.assign(support + 1, 0);
  for (const size_t k : outweighed_by) {
    ++head_reach_[k + 1];
  }
  std::partial_sum(head_reach_.begin(), head_reach_.end(), head_reach_.begin());
}

uint64_t SyntheticLm::DrawHash(uint64_t stream, std::span<const Token> context) const {
  // Key the distribution on the trailing window only; this bounds hashing
  // cost and mimics the short effective memory of n-gram statistics.
  const size_t order = static_cast<size_t>(config_.context_order);
  const size_t start = context.size() > order ? context.size() - order : 0;
  const uint64_t h = HashCombine(Mix64(config_.seed), stream);
  return HashCombine(h, HashTokens(config_.seed, context.subspan(start)));
}

std::span<const SparseDist::Entry> SupportDraw::Ranked() const {
  const std::span<const SparseDist::Entry> all(head.data(), head.size());
  return all.size() == tokens.size() ? all : all.first(std::min(reach, all.size()));
}

void SyntheticLm::Draw(uint64_t stream, std::span<const Token> context, SupportDraw& draw) const {
  // Inline scratch: a setup's support never spills, so a draw does not hit
  // the heap on this per-token hot path.
  draw.tokens.clear();
  draw.weights.clear();
  draw.head.clear();
  draw.reach = 0;
  dist_kernels::DrawSupport(dist_kernels::Chosen(), DrawHash(stream, context),
                            static_cast<uint64_t>(config_.vocab_size), config_.weight_jitter,
                            zipf_, draw.tokens, draw.weights);
}

void SyntheticLm::Draw(uint64_t stream, std::span<const Token> context,
                       std::span<const Token> suffix, SupportDraw& draw) const {
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
  Draw(stream, {window.data(), window.size()}, draw);
}

SparseDist SyntheticLm::NextDist(uint64_t stream, std::span<const Token> context) const {
  SupportDraw draw;
  Draw(stream, context, draw);
  return SparseDist::FromWeights(draw.tokens, draw.weights);
}

SparseDist SyntheticLm::NextDist(uint64_t stream, std::span<const Token> context,
                                 std::span<const Token> suffix) const {
  SupportDraw draw;
  Draw(stream, context, suffix, draw);
  return SparseDist::FromWeights(draw.tokens, draw.weights);
}

std::span<const uint32_t> SyntheticLm::HeadSlots(size_t n) const {
  return std::span<const uint32_t>(head_slots_).first(head_reach_[std::min(n, zipf_.size())]);
}

bool SyntheticLm::RankHead(SupportDraw& draw, size_t n) const {
  ADASERVE_CHECK(n >= 1) << "a head needs at least one entry";
  const bool declined = draw.reach > 0 && draw.head.empty();
  if (draw.reach >= n || declined) {
    return !declined;
  }
  draw.head.clear();
  draw.reach = n;
  return dist_kernels::RankSlots(dist_kernels::Chosen(), draw.tokens, draw.weights, HeadSlots(n),
                                 draw.head);
}

}  // namespace adaserve
