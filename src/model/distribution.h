// Sparse categorical next-token distributions.
//
// The synthetic language models emit distributions with small support
// (top-k tokens); tree building and verification need pointwise
// probability lookups, argmax and exact sampling (verification draws each
// token straight from the target, so it needs no residual arithmetic).
// All of that lives here.
#ifndef ADASERVE_SRC_MODEL_DISTRIBUTION_H_
#define ADASERVE_SRC_MODEL_DISTRIBUTION_H_

#include <cstddef>
#include <limits>
#include <span>

#include "src/common/arena.h"
#include "src/common/rng.h"
#include "src/common/types.h"

namespace adaserve {

// A probability distribution over a small token support. Entries are kept
// sorted by descending probability; probabilities sum to 1 (within
// floating-point error) over the support.
class SparseDist {
 public:
  struct Entry {
    Token token;
    double prob;
  };

  SparseDist() = default;

  // Builds a normalised distribution from (token, weight) pairs. Weights must
  // be non-negative with a positive sum; duplicate tokens are coalesced.
  static SparseDist FromWeights(std::span<const Token> tokens, std::span<const double> weights);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const Entry& entry(size_t i) const { return entries_[i]; }
  std::span<const Entry> entries() const { return {entries_.data(), entries_.size()}; }

  // Probability of `token`; 0 if outside the support.
  double ProbOf(Token token) const;

  // Highest-probability token. Ties break toward the smaller token id so
  // greedy decoding is deterministic. Requires a non-empty distribution.
  Token ArgMax() const;

  // Samples a token using inverse-CDF over the sorted support, with a
  // uniform draw in [0, 1); a draw past the accumulated mass (which is 1
  // only to within rounding) takes the last entry.
  Token Sample(Rng& rng) const;

  // Shannon entropy in nats (diagnostics).
  double Entropy() const;

  // Sum of stored probabilities (should be ~1; exposed for tests).
  double TotalMass() const;

  // The first `n` entries (all of them for n >= size()); see DistHead.
  SmallVector<Entry, 8> Head(size_t n) const;

  // Inline entry capacity: the union of a 24-token target support and a
  // 24-token noise support, the draft mixture's shape. Wider distributions
  // spill to the heap transparently.
  static constexpr size_t kInlineSupport = 48;

 private:
  friend SparseDist Mix(const SparseDist& a, const SparseDist& b, double weight);

  // Sorted by descending prob, ties by ascending token id.
  SmallVector<Entry, kInlineSupport> entries_;
};

// The first entries of a distribution in its sorted order: all a tree
// builder reads of a draft distribution. Not a distribution itself, as its
// probabilities do not sum to 1. Inline up to the widest head a builder
// asks for (a beam width of 4 plus one).
using DistHead = SmallVector<SparseDist::Entry, 8>;

// Head length that asks for every entry.
inline constexpr size_t kWholeDist = std::numeric_limits<size_t>::max();

// Mixes two distributions: weight * a + (1 - weight) * b over the union
// support, weight in [0, 1]. Used to derive the draft model from the target
// plus noise.
//   - Disjoint supports (about 98% of draft mixtures): each entry is
//     weight * p_a or (1 - weight) * p_b, not divided by the mixed total.
//     Both inputs are normalised, so that total is 1 to within a few ulps.
//     The two sorted runs are merged, not re-sorted.
//   - A shared token: FromWeights over a's scaled entries followed by b's,
//     which coalesces the token and divides by the mixed total.
SparseDist Mix(const SparseDist& a, const SparseDist& b, double weight);

// The first `n` entries of Mix(a, b, weight), bit for bit; n >= 1. On
// disjoint supports the merge stops once the head is complete.
DistHead MixHead(const SparseDist& a, const SparseDist& b, double weight, size_t n);

// MixHead for supports known to share no token, over runs of their leading
// entries: `a` and `b` hold, in their distribution's order, every entry of
// it that can be among the mixture's first `n`. An entry left out must
// rank below at least n kept entries of its own run once scaled, by a
// strictly lower product. Whole distributions qualify; DraftLm passes the
// target's and the noise model's bounded heads (SyntheticLm::RankHead).
DistHead MixDisjointHead(std::span<const SparseDist::Entry> a,
                         std::span<const SparseDist::Entry> b, double weight, size_t n);

}  // namespace adaserve

#endif  // ADASERVE_SRC_MODEL_DISTRIBUTION_H_
