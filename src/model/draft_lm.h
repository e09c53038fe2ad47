// Synthetic draft (speculator) model.
//
// Substitutes for Llama-3.2-1B / Qwen2.5-0.5B. The paper's key assumption
// (§4.2, Challenge 1) is that the draft model's logits approximate the
// target's acceptance probabilities; we make that approximation explicit:
// the draft distribution is a fidelity-weighted mixture of the target
// distribution and an independent noise distribution. fidelity = 1 gives a
// perfectly distilled draft; fidelity = 0 gives an uninformed one.
#ifndef ADASERVE_SRC_MODEL_DRAFT_LM_H_
#define ADASERVE_SRC_MODEL_DRAFT_LM_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/model/synthetic_lm.h"

namespace adaserve {

struct DraftConfig {
  // Mixture weight on the target distribution, in [0, 1].
  double fidelity = 0.8;
  // Seed of the noise component (independent of the target's seed).
  uint64_t noise_seed = 0x5eedbeef;
  // Support size of the noise component.
  int noise_support = 24;
};

class DraftLm {
 public:
  // `target` must outlive the draft model.
  DraftLm(const SyntheticLm* target, const DraftConfig& config);

  const DraftConfig& config() const { return config_; }
  const SyntheticLm& target() const { return *target_; }

  // Draft next-token distribution for the same (stream, context) keying as
  // the target model. The whole mixture, for callers that read all of it
  // or time building it: tests, bench_micro_ops and slobench. The tree
  // builders read only a head, through NextHead.
  SparseDist NextDist(uint64_t stream, std::span<const Token> context) const;

  // The first `n` entries of NextDist(stream, context), bit for bit, built
  // on `target_draw`, which must be target().Draw(stream, context). The
  // tree builders draw the target once (they keep the draw for
  // verification), pass it here, and ask only for as many draft entries as
  // they can keep: a static level's top k, a beam step's top w plus one.
  // Both models are drawn in full but ranked only at the slots that can
  // reach the head (SyntheticLm::RankHead); the target's rank is kept in
  // `target_draw`, so a draw ranked that far is not ranked again. A
  // repeated token in either draw, a token the two supports share, a
  // fidelity below 2^-53 and n = kWholeDist build the whole distributions
  // and mix them (MixHead); at fidelity 1 the head is the whole target
  // distribution's.
  DistHead NextHead(uint64_t stream, std::span<const Token> context, SupportDraw& target_draw,
                    size_t n) const;

 private:
  const SyntheticLm* target_;
  DraftConfig config_;
  SyntheticLm noise_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_MODEL_DRAFT_LM_H_
