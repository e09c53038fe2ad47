// Sparse categorical next-token distributions.
//
// The synthetic language models emit distributions with small support
// (top-k tokens); speculative-sampling verification needs pointwise
// probability lookups, residual arithmetic (max(p - q, 0) renormalised) and
// exact sampling. All of that lives here.
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

  // Convenience: a point mass on a single token.
  static SparseDist PointMass(Token token);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const Entry& entry(size_t i) const { return entries_[i]; }
  std::span<const Entry> entries() const { return {entries_.data(), entries_.size()}; }

  // Probability of `token`; 0 if outside the support.
  double ProbOf(Token token) const;

  // Highest-probability token. Ties break toward the smaller token id so
  // greedy decoding is deterministic. Requires a non-empty distribution.
  Token ArgMax() const;

  // Samples a token using inverse-CDF over the sorted support.
  Token Sample(Rng& rng) const;

  // Shannon entropy in nats (diagnostics).
  double Entropy() const;

  // Speculative-sampling residual: normalise(max(p - q, 0)) where p = *this.
  // Only tokens in p's support can carry residual mass. If the residual mass
  // underflows (q dominates p pointwise), returns p unchanged — that can only
  // happen within numerical noise of acceptance probability 1.
  SparseDist Residual(const SparseDist& q) const;

  // Applies temperature t (p_i^(1/t), renormalised). t = 1 is identity;
  // t -> 0 sharpens toward the argmax, reaching a point mass (uniform over
  // tied maxima) once the other tokens' mass underflows. Requires t > 0 and
  // a non-empty distribution.
  SparseDist WithTemperature(double t) const;

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

// Mixes two distributions: result = weight * a + (1 - weight) * b over the
// union support, renormalised. Used to derive the draft model from the
// target plus noise. Bit-identical to FromWeights over a's scaled entries
// followed by b's; when the supports are disjoint it merges the two sorted
// runs instead of re-sorting them.
SparseDist Mix(const SparseDist& a, const SparseDist& b, double weight);

// The first `n` entries of Mix(a, b, weight), bit for bit; n >= 1. On
// disjoint supports the merge stops dividing and sorting entries once the
// head is complete.
DistHead MixHead(const SparseDist& a, const SparseDist& b, double weight, size_t n);

}  // namespace adaserve

#endif  // ADASERVE_SRC_MODEL_DISTRIBUTION_H_
