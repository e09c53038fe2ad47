// Deterministic synthetic target language model.
//
// Substitutes for the paper's Llama-3.1-70B / Qwen2.5-32B targets. The model
// maps (stream seed, sliding context window) to a sparse next-token
// distribution: the support is chosen by hashing the context, and weights
// follow a perturbed Zipf law whose exponent controls entropy. Because the
// distribution is a pure function of the hash, the "model" is consistent —
// re-querying the same context yields the same distribution — which is all
// speculative decoding requires of a target model.
//
// A distribution is drawn before it is ranked (SupportDraw), and most
// readers rank only its head: the draft mixture's first entries, a greedy
// argmax or a sampled token that nearly always lies among the first few.
#ifndef ADASERVE_SRC_MODEL_SYNTHETIC_LM_H_
#define ADASERVE_SRC_MODEL_SYNTHETIC_LM_H_

#include <cstddef>
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

// One support draw of a SyntheticLm (SyntheticLm::Draw): every slot's
// token and weight, in slot order. FromWeights(tokens, weights) is the
// model's NextDist; SyntheticLm::RankHead ranks its head.
struct SupportDraw {
  dist_kernels::TokenScratch tokens;
  dist_kernels::WeightScratch weights;
  // The entries of FromWeights(tokens, weights) at the model's
  // HeadSlots(reach), in its order and bit for bit. Empty while unranked
  // and for a draw RankHead declined.
  DistHead head;
  // The head length `head` was ranked for; 0 while unranked.
  size_t reach = 0;

  // The leading entries of FromWeights(tokens, weights) that `head` holds:
  // its first `reach`, or all of it where every slot was ranked. Empty
  // while unranked and for a declined draw.
  std::span<const SparseDist::Entry> Ranked() const;
};

class SyntheticLm {
 public:
  explicit SyntheticLm(const LmConfig& config);

  const LmConfig& config() const { return config_; }

  // The support draw of the next-token distribution for request stream
  // `stream` given the committed token sequence `context`, into `draw`,
  // replacing what it held. Only the last `context_order` tokens matter;
  // shorter contexts are implicitly left-padded with the stream hash.
  void Draw(uint64_t stream, std::span<const Token> context, SupportDraw& draw) const;

  // Draw(stream, context followed by suffix), without building the
  // concatenation: only its trailing window is copied, onto the stack.
  void Draw(uint64_t stream, std::span<const Token> context, std::span<const Token> suffix,
            SupportDraw& draw) const;

  // The next-token distribution: FromWeights over Draw(stream, context).
  SparseDist NextDist(uint64_t stream, std::span<const Token> context) const;
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

  // Ranks `draw`, a Draw of this model, at HeadSlots(n), n >= 1, unless it
  // is ranked at least that far: the full draw stays, and only the slots
  // that can reach the first n entries are divided and sorted. Returns
  // false, leaving the head empty, for a draw dist_kernels::RankSlots
  // declines: a repeated token (which NextDist coalesces), a support wider
  // than dist_kernels::kRankWidth, or a weight that underflows to zero. A
  // declined draw is not tested again.
  bool RankHead(SupportDraw& draw, size_t n) const;

 private:
  // The hash Draw seeds its support draw with.
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
