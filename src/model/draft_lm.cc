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
                           const SparseDist& target_dist, size_t n) const {
  if (config_.fidelity >= 1.0) {
    return target_dist.Head(n);
  }
  if (n != kWholeDist) {
    const dist_kernels::Width width = dist_kernels::Chosen();
    HeadDraw noise;
    if (noise_.DrawHead(width, stream, context, n, noise) &&
        !dist_kernels::SharesToken(width, target_dist.entries(),
                                   {noise.tokens.data(), noise.tokens.size()})) {
      return MixDisjointHead(target_dist.entries(), {noise.head.data(), noise.head.size()},
                             config_.fidelity, n);
    }
  }
  // A repeated noise token, a token shared with the target, or the whole
  // mixture.
  return MixHead(target_dist, noise_.NextDist(stream, context), config_.fidelity, n);
}

}  // namespace adaserve
