// Deterministic synthetic target language model.
//
// Substitutes for the paper's Llama-3.1-70B / Qwen2.5-32B targets. The model
// maps (stream seed, sliding context window) to a sparse next-token
// distribution: the support is chosen by hashing the context, and weights
// follow a perturbed Zipf law whose exponent controls entropy. Because the
// distribution is a pure function of the hash, the "model" is consistent —
// re-querying the same context yields the same distribution — which is all
// speculative decoding requires of a target model.
#ifndef ADASERVE_SRC_MODEL_SYNTHETIC_LM_H_
#define ADASERVE_SRC_MODEL_SYNTHETIC_LM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/model/distribution.h"

namespace adaserve {

struct LmConfig {
  // Vocabulary size; token ids are in [0, vocab_size).
  int vocab_size = 32000;
  // Number of trailing context tokens the next-token distribution depends on.
  int context_order = 3;
  // Support size of each next-token distribution.
  int support = 24;
  // Zipf exponent for the support weights. Larger values concentrate mass on
  // the head (lower entropy => easier speculation).
  double zipf_exponent = 1.3;
  // Multiplicative jitter applied to each weight, in [1 - jitter, 1 + jitter].
  double weight_jitter = 0.4;
  // Model identity; two LMs with different seeds are unrelated.
  uint64_t seed = 1;
};

class SyntheticLm {
 public:
  explicit SyntheticLm(const LmConfig& config);

  const LmConfig& config() const { return config_; }

  // Next-token distribution for request stream `stream` given the committed
  // token sequence `context`. Only the last `context_order` tokens matter;
  // shorter contexts are implicitly left-padded with the stream hash.
  SparseDist NextDist(uint64_t stream, std::span<const Token> context) const;

  // NextDist(stream, context followed by suffix), without building the
  // concatenation: only its trailing window is copied, onto the stack.
  SparseDist NextDist(uint64_t stream, std::span<const Token> context,
                      std::span<const Token> suffix) const;

 private:
  LmConfig config_;
  // zipf_[i] = (i + 1)^-zipf_exponent: the un-jittered weight of the
  // (i+1)-th support slot, computed once per model so NextDist calls no pow.
  std::vector<double> zipf_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_MODEL_SYNTHETIC_LM_H_
