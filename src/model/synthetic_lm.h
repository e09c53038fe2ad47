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

#include "src/model/dist_kernels.h"
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

// A support draw ranked only as far as a head reads it: SyntheticLm::DrawHead.
struct HeadDraw {
  // Every slot's token, in slot order: NextDist's whole support.
  dist_kernels::TokenScratch tokens;
  // The entries of NextDist that can be among its first n, in its order
  // and bit for bit.
  dist_kernels::EntryScratch head;
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

  // The support slots whose entry can be among the first `n` of a NextDist
  // (all of them for n >= support): every slot but those that at least n
  // other slots outweigh on every draw, by a margin that keeps them ahead
  // through NextDist's division and a draft mixture's scaling. Worked out
  // once per model from the Zipf table and the jitter; at exponent 3 and
  // jitter 0.4 it is at most slots 0..5 for n <= 5. Exponent 0 gives
  // every slot, and jitter 0 the first n.
  std::span<const uint32_t> HeadSlots(size_t n) const;

  // NextDist(stream, context) drawn in full but ranked only at
  // HeadSlots(n), at kernel width `width`, into the empty `draw`. Returns
  // false, `draw.head` left empty, for a draw dist_kernels::RankInto would
  // not take: a repeated token (which NextDist coalesces), a support wider
  // than dist_kernels::kRankWidth, or a weight that underflows to zero.
  // The draft model's bounded head.
  bool DrawHead(dist_kernels::Width width, uint64_t stream, std::span<const Token> context,
                size_t n, HeadDraw& draw) const;

 private:
  // The hash NextDist seeds its support draw with.
  uint64_t DrawHash(uint64_t stream, std::span<const Token> context) const;

  LmConfig config_;
  // zipf_[i] = (i + 1)^-zipf_exponent: the un-jittered weight of the
  // (i+1)-th support slot, computed once per model so NextDist calls no pow.
  std::vector<double> zipf_;
  // Every slot, ordered by how many slots outweigh it on every draw, then
  // by index; HeadSlots(n) is its first head_reach_[min(n, support)].
  std::vector<uint32_t> head_slots_;
  std::vector<size_t> head_reach_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_MODEL_SYNTHETIC_LM_H_
