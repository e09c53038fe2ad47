// Decoding modes and token sampling helpers.
#ifndef ADASERVE_SRC_MODEL_SAMPLER_H_
#define ADASERVE_SRC_MODEL_SAMPLER_H_

#include <cstddef>

#include "src/model/distribution.h"
#include "src/model/synthetic_lm.h"

namespace adaserve {

// Decoding policy used both for plain auto-regressive generation and for
// speculative verification.
enum class DecodeMode {
  // Deterministic: commit the argmax token; a speculated token is accepted
  // iff it equals the target argmax.
  kGreedy,
  // Sampling: commit a sampled token; speculated tokens go through lossless
  // speculative-sampling acceptance.
  kStochastic,
};

// The head SampleToken ranks a fresh draw to. A setup target's first three
// entries hold about 96% of its mass, so a stochastic draw seldom walks
// past them.
inline constexpr size_t kSampleHead = 3;

// Draws one token from `dist` under `mode`.
Token SampleToken(const SparseDist& dist, DecodeMode mode, Rng& rng);

// SampleToken(FromWeights(draw.tokens, draw.weights), mode, rng) for
// `draw`, a Draw of `model`, bit for bit and leaving `rng` in the same
// state, without building that distribution unless the draw reaches past
// its head. Ranks the draw's head at kSampleHead unless it is ranked
// (SyntheticLm::RankHead), then samples it as SampleRanked does.
Token SampleToken(const SyntheticLm& model, SupportDraw& draw, DecodeMode mode, Rng& rng);

// The same draw from a draw as it is ranked: greedy reads the first
// ranked entry, and stochastic walks the ranked entries with Sample's one
// uniform and running sum, continuing over the whole distribution, built
// from the draw, only past them. An unranked or declined draw builds it
// at once. The verifier's draw for a tree node, which the builder ranked.
Token SampleRanked(const SupportDraw& draw, DecodeMode mode, Rng& rng);

}  // namespace adaserve

#endif  // ADASERVE_SRC_MODEL_SAMPLER_H_
