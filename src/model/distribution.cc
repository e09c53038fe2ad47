#include "src/model/distribution.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

#include "src/common/logging.h"

namespace adaserve {
namespace {

bool Before(const SparseDist::Entry& a, const SparseDist::Entry& b) {
  if (a.prob != b.prob) {
    return a.prob > b.prob;
  }
  return a.token < b.token;
}

// Sorts by descending prob, ties by ascending token. Tokens are distinct, so
// this is a total order and any correct sort yields the same array. Inputs
// arrive nearly sorted: Zipf rank order with jitter, or a merge out of
// order only inside probability ties. A plain insertion sort leaves
// in-place entries after one comparison and moves the few out-of-place
// ones a short way.
void SortEntries(std::span<SparseDist::Entry> entries) {
  for (size_t i = 1; i < entries.size(); ++i) {
    const SparseDist::Entry e = entries[i];
    size_t j = i;
    for (; j > 0 && Before(e, entries[j - 1]); --j) {
      entries[j] = entries[j - 1];
    }
    entries[j] = e;
  }
}

// Four tokens as one GCC/Clang vector: on x86-64 a lane-wise == or |= is
// one SSE2 instruction.
using TokenLanes = Token __attribute__((vector_size(4 * sizeof(Token))));

// Lane k is nonzero where a[k] equals one of b's other three lanes: for
// one group (a == b), every pair of distinct lanes; together with the
// lane-wise a == b, all sixteen pairs of two groups.
TokenLanes OtherLaneMatches(TokenLanes a, TokenLanes b) {
  return (a == __builtin_shufflevector(b, b, 1, 2, 3, 0)) |
         (a == __builtin_shufflevector(b, b, 2, 3, 0, 1)) |
         (a == __builtin_shufflevector(b, b, 3, 0, 1, 2));
}

bool AnyLane(TokenLanes hits) { return (hits[0] | hits[1] | hits[2] | hits[3]) != 0; }

// The tokens of entries i..i+3 of `entries` (the last one repeated past
// the end). A whole group loads each 16-byte entry and shuffles the
// tokens together instead of inserting them one by one.
TokenLanes TokensAt(std::span<const SparseDist::Entry> entries, size_t i) {
  static_assert(sizeof(SparseDist::Entry) == sizeof(TokenLanes) &&
                offsetof(SparseDist::Entry, token) == 0);
  if (i + 4 <= entries.size()) {
    TokenLanes e0;
    TokenLanes e1;
    TokenLanes e2;
    TokenLanes e3;
    std::memcpy(&e0, &entries[i], sizeof(TokenLanes));
    std::memcpy(&e1, &entries[i + 1], sizeof(TokenLanes));
    std::memcpy(&e2, &entries[i + 2], sizeof(TokenLanes));
    std::memcpy(&e3, &entries[i + 3], sizeof(TokenLanes));
    const TokenLanes lo = __builtin_shufflevector(e0, e1, 0, 4, 0, 4);
    const TokenLanes hi = __builtin_shufflevector(e2, e3, 0, 4, 0, 4);
    return __builtin_shufflevector(lo, hi, 0, 1, 4, 5);
  }
  TokenLanes lanes;
  for (size_t k = 0; k < 4; ++k) {
    lanes[k] = entries[std::min(i + k, entries.size() - 1)].token;
  }
  return lanes;
}

// True if some token of `b` is also a token of `a`. Exact and branch-free:
// every group of four `b` tokens is compared with every group of four `a`
// tokens.
bool SharesToken(const SparseDist& a, const SparseDist& b) {
  if (a.empty()) {
    return false;
  }
  SmallVector<TokenLanes, (SparseDist::kInlineSupport + 3) / 4> groups;
  for (size_t i = 0; i < a.size(); i += 4) {
    groups.push_back(TokensAt(a.entries(), i));
  }
  TokenLanes hits = {};
  for (size_t j = 0; j < b.size(); j += 4) {
    const TokenLanes b0 = TokensAt(b.entries(), j);
    for (const TokenLanes& g : groups) {
      hits |= (g == b0) | OtherLaneMatches(g, b0);
    }
  }
  return AnyLane(hits);
}

// The widest input the rank path takes: a setup's 24-token target or noise
// support. A compile-time width lets the compiler unroll the rank loop.
constexpr size_t kRankWidth = 24;
// Two probabilities as one GCC/Clang vector (one SSE2 register).
using ProbLanes = double __attribute__((vector_size(2 * sizeof(double))));

// FromWeights for the shape nearly every call has: at most kRankWidth
// entries, every weight positive, no token twice; false for any other
// input. With distinct tokens and probabilities, an entry's sorted position
// is the number of probabilities above its own, counted without a branch
// over fixed-width lanes, where a sort mispredicts on every fresh support.
// Pad lanes hold prob 0.0, which exceeds no real prob, and a distinct
// negative token; a real token equal to one only sends the input to the scan.
bool RankInto(std::span<const Token> tokens, std::span<const double> weights,
              SmallVector<SparseDist::Entry, SparseDist::kInlineSupport>& out) {
  const size_t n = tokens.size();
  // Summed in input order and divided once per entry, as the scan does.
  double total = 0.0;
  bool positive = n > 0 && n <= kRankWidth;
  for (size_t i = 0; positive && i < n; ++i) {
    positive = weights[i] > 0.0;
    total += weights[i];
  }
  if (!positive || !std::isfinite(total)) {
    return false;
  }
  std::array<TokenLanes, kRankWidth / 4> groups = {};
  for (size_t i = 0; i < kRankWidth; ++i) {
    groups[i / 4][i % 4] =
        i < n ? tokens[i] : std::numeric_limits<Token>::min() + static_cast<Token>(i);
  }
  TokenLanes repeats = {};
  for (size_t g = 0; g < groups.size(); ++g) {
    repeats |= OtherLaneMatches(groups[g], groups[g]);
    for (size_t h = g + 1; h < groups.size(); ++h) {
      repeats |= (groups[g] == groups[h]) | OtherLaneMatches(groups[g], groups[h]);
    }
  }
  if (AnyLane(repeats)) {
    return false;
  }
  std::array<ProbLanes, kRankWidth / 2> probs = {};
  std::memcpy(probs.data(), weights.data(), n * sizeof(double));
  for (ProbLanes& p : probs) {
    p /= ProbLanes{total, total};
  }
  const auto entry = [&](size_t i) { return SparseDist::Entry{tokens[i], probs[i / 2][i % 2]}; };
  // Lane i of ranks[i / 2] counts the probabilities above entry i's (a
  // true lane compare is -1). The ranks are below n, and a permutation
  // unless two probabilities tie.
  std::array<decltype(ProbLanes{} > ProbLanes{}), kRankWidth / 2> ranks = {};
  for (size_t j = 0; j < kRankWidth; ++j) {
    const ProbLanes pj = {probs[j / 2][j % 2], probs[j / 2][j % 2]};
    for (size_t k = 0; k < ranks.size(); ++k) {
      ranks[k] -= pj > probs[k];
    }
  }
  std::array<SparseDist::Entry, kRankWidth> sorted = {};
  uint32_t seen = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto rank = static_cast<size_t>(ranks[i / 2][i % 2]);
    seen |= 1U << rank;
    sorted[rank] = entry(i);
  }
  const bool tie = seen != (1U << n) - 1;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(tie ? entry(i) : sorted[i]);
  }
  if (tie) {
    SortEntries({out.data(), out.size()});
  }
  return true;
}

}  // namespace

SparseDist SparseDist::FromWeights(std::span<const Token> tokens, std::span<const double> weights) {
  ADASERVE_CHECK(tokens.size() == weights.size()) << "token/weight size mismatch";
  SparseDist dist;
  if (RankInto(tokens, weights, dist.entries_)) {
    return dist;
  }
  // Any other input: coalesce by first appearance, summing each token's
  // weights and the total in input order, then sort.
  SmallVector<Entry, kInlineSupport>& entries = dist.entries_;
  double total = 0.0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    ADASERVE_CHECK(weights[i] >= 0.0) << "negative weight for token " << tokens[i];
    if (weights[i] <= 0.0) {
      continue;
    }
    total += weights[i];
    Entry* const seen = std::find_if(entries.begin(), entries.end(),
                                     [&](const Entry& e) { return e.token == tokens[i]; });
    if (seen == entries.end()) {
      entries.push_back({tokens[i], weights[i]});
    } else {
      seen->prob += weights[i];
    }
  }
  ADASERVE_CHECK(total > 0.0) << "distribution has no mass";
  for (Entry& e : entries) {
    e.prob /= total;
  }
  SortEntries({entries.data(), entries.size()});
  return dist;
}

double SparseDist::ProbOf(Token token) const {
  for (const Entry& e : entries_) {
    if (e.token == token) {
      return e.prob;
    }
  }
  return 0.0;
}

Token SparseDist::ArgMax() const {
  ADASERVE_CHECK(!entries_.empty()) << "ArgMax of empty distribution";
  return entries_.front().token;
}

Token SparseDist::Sample(Rng& rng) const {
  ADASERVE_CHECK(!entries_.empty()) << "Sample from empty distribution";
  const double u = rng.Uniform() * TotalMass();
  double cum = 0.0;
  for (const Entry& e : entries_) {
    cum += e.prob;
    if (u < cum) {
      return e.token;
    }
  }
  return entries_.back().token;
}

double SparseDist::Entropy() const {
  double h = 0.0;
  for (const Entry& e : entries_) {
    if (e.prob > 0.0) {
      h -= e.prob * std::log(e.prob);
    }
  }
  return h;
}

DistHead SparseDist::Head(size_t n) const {
  DistHead head;
  for (const Entry& e : entries().first(std::min(n, size()))) {
    head.push_back(e);
  }
  return head;
}

double SparseDist::TotalMass() const {
  double total = 0.0;
  for (const Entry& e : entries_) {
    total += e.prob;
  }
  return total;
}

namespace {

// Appends the first `n` entries of Mix(a, b, weight) to the empty `out`;
// all of them for n = kWholeDist. The one merge loop behind Mix and
// MixHead.
template <typename Entries>
void MixInto(const SparseDist& a, const SparseDist& b, double weight, size_t n, Entries& out) {
  ADASERVE_CHECK(weight >= 0.0 && weight <= 1.0) << "mix weight out of range: " << weight;
  if (SharesToken(a, b)) {
    // A shared token must be coalesced, which only FromWeights does.
    SmallVector<Token, SparseDist::kInlineSupport> tokens;
    SmallVector<double, SparseDist::kInlineSupport> weights;
    for (const auto& e : a.entries()) {
      tokens.push_back(e.token);
      weights.push_back(weight * e.prob);
    }
    for (const auto& e : b.entries()) {
      tokens.push_back(e.token);
      weights.push_back((1.0 - weight) * e.prob);
    }
    const SparseDist mixed = SparseDist::FromWeights({tokens.data(), tokens.size()},
                                                     {weights.data(), weights.size()});
    for (const auto& e : mixed.entries().first(std::min(n, mixed.size()))) {
      out.push_back(e);
    }
    return;
  }
  // Disjoint supports: FromWeights would coalesce nothing, so each entry
  // would be its scaled weight over the total, sorted. Scaling keeps each
  // run in descending order, so the zero weights FromWeights skips are a
  // suffix of each run. Accumulate the total over both runs whatever the
  // head length, in its input order (a, then b), so every double matches
  // it bit for bit.
  const double weight_b = 1.0 - weight;
  double total = 0.0;
  const auto positive_prefix = [&total](std::span<const SparseDist::Entry> run, double w) {
    size_t k = 0;
    for (; k < run.size() && w * run[k].prob > 0.0; ++k) {
      total += w * run[k].prob;
    }
    return run.first(k);
  };
  const std::span<const SparseDist::Entry> xs = positive_prefix(a.entries(), weight);
  const std::span<const SparseDist::Entry> ys = positive_prefix(b.entries(), weight_b);
  ADASERVE_CHECK(total > 0.0) << "distribution has no mass";
  // Merge by scaled weight, dividing each entry once. Dividing by the
  // total is monotone, so the merged probabilities descend too, but
  // rounding can tie entries whose token order the merge does not know;
  // the closing insertion pass (one comparison per entry unless a tie is
  // out of order) settles those. Sorting only reorders such a tie group,
  // so once `n` entries are out, the first entry with a strictly lower
  // probability and everything after it lie past the head: the merge
  // stops there, keeping the whole tie group the cut falls in.
  size_t i = 0;
  size_t j = 0;
  while (i < xs.size() || j < ys.size()) {
    const bool from_a =
        j == ys.size() || (i < xs.size() && weight * xs[i].prob >= weight_b * ys[j].prob);
    const SparseDist::Entry e = from_a
                                    ? SparseDist::Entry{xs[i].token, weight * xs[i].prob / total}
                                    : SparseDist::Entry{ys[j].token, weight_b * ys[j].prob / total};
    if (from_a) {
      ++i;
    } else {
      ++j;
    }
    if (out.size() >= n && e.prob < out.back().prob) {
      break;
    }
    out.push_back(e);
  }
  SortEntries({out.data(), out.size()});
  out.truncate(n);
}

}  // namespace

SparseDist Mix(const SparseDist& a, const SparseDist& b, double weight) {
  SparseDist dist;
  MixInto(a, b, weight, kWholeDist, dist.entries_);
  return dist;
}

DistHead MixHead(const SparseDist& a, const SparseDist& b, double weight, size_t n) {
  ADASERVE_CHECK(n >= 1) << "a head needs at least one entry";
  DistHead head;
  MixInto(a, b, weight, n, head);
  return head;
}

}  // namespace adaserve
