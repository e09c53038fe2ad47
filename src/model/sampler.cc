#include "src/model/sampler.h"

#include <span>

namespace adaserve {

Token SampleToken(const SparseDist& dist, DecodeMode mode, Rng& rng) {
  if (mode == DecodeMode::kGreedy) {
    return dist.ArgMax();
  }
  return dist.Sample(rng);
}

Token SampleToken(const SyntheticLm& model, SupportDraw& draw, DecodeMode mode, Rng& rng) {
  model.RankHead(draw, kSampleHead);
  return SampleRanked(draw, mode, rng);
}

Token SampleRanked(const SupportDraw& draw, DecodeMode mode, Rng& rng) {
  const std::span<const SparseDist::Entry> head = draw.Ranked();
  const auto whole = [&] { return SparseDist::FromWeights(draw.tokens, draw.weights); };
  if (head.empty()) {
    return SampleToken(whole(), mode, rng);
  }
  if (mode == DecodeMode::kGreedy) {
    return head.front().token;
  }
  // SparseDist::Sample's walk, over the head's entries, which are the
  // distribution's first ones bit for bit.
  const double u = rng.Uniform();
  double cum = 0.0;
  for (const SparseDist::Entry& e : head) {
    cum += e.prob;
    if (u < cum) {
      return e.token;
    }
  }
  if (head.size() == draw.tokens.size()) {
    return head.back().token;
  }
  const SparseDist dist = whole();
  for (const SparseDist::Entry& e : dist.entries().subspan(head.size())) {
    cum += e.prob;
    if (u < cum) {
      return e.token;
    }
  }
  return dist.entries().back().token;
}

}  // namespace adaserve
