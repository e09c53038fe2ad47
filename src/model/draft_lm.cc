#include "src/model/draft_lm.h"

#include "src/common/logging.h"
#include "src/model/dist_kernels.h"

namespace adaserve {
namespace {

LmConfig NoiseConfig(const SyntheticLm& target, const DraftConfig& config) {
  LmConfig noise = target.config();
  noise.seed = config.noise_seed;
  noise.support = config.noise_support;
  return noise;
}

}  // namespace

DraftLm::DraftLm(const SyntheticLm* target, const DraftConfig& config)
    : target_(target), config_(config), noise_(NoiseConfig(*target, config)) {
  ADASERVE_CHECK(target_ != nullptr) << "draft model requires a target";
  ADASERVE_CHECK(config_.fidelity >= 0.0 && config_.fidelity <= 1.0)
      << "fidelity out of range: " << config_.fidelity;
}

SparseDist DraftLm::NextDist(uint64_t stream, std::span<const Token> context) const {
  SparseDist target_dist = target_->NextDist(stream, context);
  if (config_.fidelity >= 1.0) {
    return target_dist;
  }
  return Mix(target_dist, noise_.NextDist(stream, context), config_.fidelity);
}

DistHead DraftLm::NextHead(uint64_t stream, std::span<const Token> context,
                           SupportDraw& target_draw, size_t n) const {
  const double fidelity = config_.fidelity;
  // Both heads are runs MixDisjointHead takes: the bound behind HeadSlots
  // holds for each run's factor, fidelity and 1 - fidelity, once both are
  // at least 2^-53.
  if (n != kWholeDist && fidelity >= 0x1.0p-53 && fidelity < 1.0 &&
      target_->RankHead(target_draw, n)) {
    SupportDraw noise;
    noise_.Draw(stream, context, noise);
    if (noise_.RankHead(noise, n) &&
        !dist_kernels::SharesToken(dist_kernels::Chosen(),
                                   std::span<const Token>(target_draw.tokens), noise.tokens)) {
      return MixDisjointHead(target_draw.head, noise.head, fidelity, n);
    }
  }
  // A repeated token, a shared token, a fidelity outside [2^-53, 1) or the
  // whole mixture.
  const SparseDist target_dist = SparseDist::FromWeights(target_draw.tokens, target_draw.weights);
  if (fidelity >= 1.0) {
    return target_dist.Head(n);
  }
  return MixHead(target_dist, noise_.NextDist(stream, context), fidelity, n);
}

}  // namespace adaserve
