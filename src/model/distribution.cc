#include "src/model/distribution.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/model/dist_kernels.h"

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

}  // namespace

namespace dist_kernels {
namespace {

template <typename V>
constexpr size_t kLanes = sizeof(V) / sizeof(V{}[0]);

// Every lane of `lanes` set to x.
template <typename V, typename T, size_t... K>
[[gnu::always_inline]] inline void Splat(T x, V& lanes, std::index_sequence<K...> /*lanes*/) {
  lanes = V{((void)K, x)...};
}

template <typename V, typename T>
[[gnu::always_inline]] inline void Splat(T x, V& lanes) {
  Splat(x, lanes, std::make_index_sequence<kLanes<V>>());
}

// Lanes i.. of `values` into `lanes`, `pad(i + k)` past values' end.
template <typename V, typename T, typename Pad>
[[gnu::always_inline]] inline void LoadPadded(std::span<const T> values, size_t i, const Pad& pad,
                                              V& lanes) {
  if (i + kLanes<V> <= values.size()) {
    std::memcpy(&lanes, &values[i], sizeof(V));
    return;
  }
  for (size_t k = 0; k < kLanes<V>; ++k) {
    lanes[k] = i + k < values.size() ? values[i + k] : pad(i + k);
  }
}

// `lanes` rotated down by r: lane k holds lanes[(k + r) % n].
template <size_t r, typename V, size_t... K>
[[gnu::always_inline]] inline void Rotate(const V& lanes, V& rotated,
                                          std::index_sequence<K...> /*lanes*/) {
  rotated = __builtin_shufflevector(lanes, lanes, (K + r) % kLanes<V>...);
}

// ORs into `hits` lane k nonzero where a[k] equals one of b's other lanes:
// for one group (a == b), every pair of distinct lanes; together with the
// lane-wise a == b, every pair of two groups.
template <typename V, size_t... R>
[[gnu::always_inline]] inline void OtherLaneMatches(const V& a, const V& b, V& hits,
                                                    std::index_sequence<0, R...> /*rotations*/) {
  V rotated = {};
  ((Rotate<R>(b, rotated, std::make_index_sequence<kLanes<V>>()), hits |= a == rotated), ...);
}

template <typename V>
[[gnu::always_inline]] inline void OtherLaneMatches(const V& a, const V& b, V& hits) {
  OtherLaneMatches(a, b, hits, std::make_index_sequence<kLanes<V>>());
}

template <typename M>
[[gnu::always_inline]] inline bool AnyLane(const M& hits) {
  auto any = hits[0];
  for (size_t k = 1; k < kLanes<M>; ++k) {
    any |= hits[k];
  }
  return any != 0;
}

// Lanes 0, 4, 8, ... of the concatenation of `lo` and `hi`.
template <typename Half, typename V, size_t... K>
[[gnu::always_inline]] inline void EveryFourth(const Half& lo, const Half& hi, V& lanes,
                                               std::index_sequence<K...> /*lanes*/) {
  lanes = __builtin_shufflevector(lo, hi, (4 * K)...);
}

// The tokens of entries i.. of `entries`, one per lane (the last entry
// repeated past the end). A whole group loads its 16-byte entries half a
// group at a time and shuffles the tokens together instead of inserting
// them one by one.
template <typename V>
[[gnu::always_inline]] inline void TokensAt(std::span<const SparseDist::Entry> entries, size_t i,
                                            V& lanes) {
  constexpr size_t n = kLanes<V>;
  static_assert(sizeof(SparseDist::Entry) == 4 * sizeof(Token) &&
                offsetof(SparseDist::Entry, token) == 0);
  if (i + n <= entries.size()) {
    using Half = Lanes<Token, 2 * n>;
    Half lo = {};
    Half hi = {};
    std::memcpy(&lo, &entries[i], sizeof(Half));
    std::memcpy(&hi, &entries[i + n / 2], sizeof(Half));
    EveryFourth(lo, hi, lanes, std::make_index_sequence<n>());
    return;
  }
  for (size_t k = 0; k < n; ++k) {
    lanes[k] = entries[std::min(i + k, entries.size() - 1)].token;
  }
}

// Tokens i.. of `tokens`, one per lane (the last token repeated past the
// end).
template <typename V>
[[gnu::always_inline]] inline void TokensAt(std::span<const Token> tokens, size_t i, V& lanes) {
  LoadPadded(tokens, i, [&](size_t /*i*/) { return tokens.back(); }, lanes);
}

// SharesToken at kTokenLanes lanes. Exact and branch-free: every group of
// `b` tokens is compared with every group of `a` tokens, a's groups held in
// registers a block of kInlineSupport entries at a time. `a` and `b` both
// hold entries or both bare tokens.
template <size_t kTokenLanes, typename T>
[[gnu::always_inline]] inline bool SharesTokenBody(std::span<const T> a, std::span<const T> b) {
  using TokenLanes = Lanes<Token, kTokenLanes>;
  constexpr size_t kBlock = SparseDist::kInlineSupport;
  TokenLanes hits = {};
  for (size_t start = 0; start < a.size(); start += kBlock) {
    const std::span<const T> block = a.subspan(start, std::min(kBlock, a.size() - start));
    std::array<TokenLanes, (kBlock + kTokenLanes - 1) / kTokenLanes> groups = {};
    const size_t num_groups = (block.size() + kTokenLanes - 1) / kTokenLanes;
    for (size_t g = 0; g < num_groups; ++g) {
      TokensAt(block, g * kTokenLanes, groups[g]);
    }
    for (size_t j = 0; j < b.size(); j += kTokenLanes) {
      TokenLanes b0 = {};
      TokensAt(b, j, b0);
      for (size_t g = 0; g < num_groups; ++g) {
        hits |= groups[g] == b0;
        OtherLaneMatches(groups[g], b0, hits);
      }
    }
  }
  return AnyLane(hits);
}

// The total of `weights`, summed in input order as the scan sums it, into
// `total`. False unless there are 1..kRankWidth weights, all positive, with
// a finite total.
[[gnu::always_inline]] inline bool RankableTotal(std::span<const double> weights, double& total) {
  total = 0.0;
  bool positive = !weights.empty() && weights.size() <= kRankWidth;
  for (size_t i = 0; positive && i < weights.size(); ++i) {
    positive = weights[i] > 0.0;
    total += weights[i];
  }
  return positive && std::isfinite(total);
}

// True if a token of `tokens` (at most kRankWidth) repeats, or equals the
// pad token of a lane past the end: INT32_MIN + i for lane i.
template <size_t kTokenLanes>
[[gnu::always_inline]] inline bool RepeatsBody(std::span<const Token> tokens) {
  using TokenLanes = Lanes<Token, kTokenLanes>;
  static_assert(kRankWidth % kTokenLanes == 0);
  const auto pad_token = [](size_t i) {
    return std::numeric_limits<Token>::min() + static_cast<Token>(i);
  };
  std::array<TokenLanes, kRankWidth / kTokenLanes> groups = {};
  for (size_t g = 0; g < groups.size(); ++g) {
    LoadPadded(tokens, g * kTokenLanes, pad_token, groups[g]);
  }
  TokenLanes repeats = {};
  for (size_t g = 0; g < groups.size(); ++g) {
    OtherLaneMatches(groups[g], groups[g], repeats);
    for (size_t h = g + 1; h < groups.size(); ++h) {
      repeats |= groups[g] == groups[h];
      OtherLaneMatches(groups[g], groups[h], repeats);
    }
  }
  return AnyLane(repeats);
}

// RankInto at kProbLanes double lanes and kTokenLanes token lanes. With
// distinct tokens and probabilities, an entry's sorted position is the
// number of probabilities above its own, counted without a branch over
// fixed-width lanes, where a sort mispredicts on every fresh support. Pad
// lanes hold prob 0.0, which exceeds no real prob, and a distinct negative
// token; a real token equal to one only sends the input to the scan.
template <size_t kProbLanes, size_t kTokenLanes>
[[gnu::always_inline]] inline bool RankBody(std::span<const Token> tokens,
                                            std::span<const double> weights, EntryScratch& out) {
  using ProbLanes = Lanes<double, kProbLanes>;
  static_assert(kRankWidth % kProbLanes == 0);
  const size_t n = tokens.size();
  // Summed in input order and divided once per entry, as the scan does.
  double total = 0.0;
  if (!RankableTotal(weights, total) || RepeatsBody<kTokenLanes>(tokens)) {
    return false;
  }
  ProbLanes totals = {};
  Splat(total, totals);
  std::array<ProbLanes, kRankWidth / kProbLanes> probs = {};
  for (size_t g = 0; g < probs.size(); ++g) {
    LoadPadded(weights, g * kProbLanes, [](size_t /*i*/) { return 0.0; }, probs[g]);
    probs[g] /= totals;
  }
  const auto prob = [&](size_t i) { return probs[i / kProbLanes][i % kProbLanes]; };
  // Lane i of ranks[i / kProbLanes] counts the probabilities above entry
  // i's (a true lane compare is -1). The ranks are below n, and a
  // permutation unless two probabilities tie.
  std::array<decltype(ProbLanes{} > ProbLanes{}), kRankWidth / kProbLanes> ranks = {};
  for (size_t j = 0; j < kRankWidth; ++j) {
    ProbLanes pj = {};
    Splat(prob(j), pj);
    for (size_t k = 0; k < ranks.size(); ++k) {
      ranks[k] -= pj > probs[k];
    }
  }
  const auto entry = [&](size_t i) { return SparseDist::Entry{tokens[i], prob(i)}; };
  for (size_t i = 0; i < n; ++i) {
    out.push_back(entry(i));
  }
  // Scatter by rank, in place: the entries are read from the lanes.
  SparseDist::Entry* const sorted = out.data();
  uint32_t seen = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto rank = static_cast<size_t>(ranks[i / kProbLanes][i % kProbLanes]);
    seen |= 1U << rank;
    sorted[rank] = entry(i);
  }
  if (seen != (1U << n) - 1) {
    // A tie: back to input order, then sort.
    for (size_t i = 0; i < n; ++i) {
      sorted[i] = entry(i);
    }
    SortEntries({out.data(), out.size()});
  }
  return true;
}

// RankSlots at kTokenLanes token lanes. Only the repeat test is vector
// work: the few slots a head reads are divided and sorted one by one.
template <size_t kTokenLanes>
[[gnu::always_inline]] inline bool RankSlotsBody(std::span<const Token> tokens,
                                                 std::span<const double> weights,
                                                 std::span<const uint32_t> slots,
                                                 DistHead& out) {
  double total = 0.0;
  if (!RankableTotal(weights, total) || RepeatsBody<kTokenLanes>(tokens)) {
    return false;
  }
  for (const uint32_t s : slots) {
    out.push_back({tokens[s], weights[s] / total});
  }
  SortEntries({out.data(), out.size()});
  return true;
}

#if ADASERVE_WIDE_KERNELS
[[gnu::target("arch=x86-64-v4")]] bool RankIntoWide(std::span<const Token> tokens,
                                                    std::span<const double> weights,
                                                    EntryScratch& out) {
  return RankBody<8, 8>(tokens, weights, out);
}

[[gnu::target("arch=x86-64-v4")]] bool RankSlotsWide(std::span<const Token> tokens,
                                                     std::span<const double> weights,
                                                     std::span<const uint32_t> slots,
                                                     DistHead& out) {
  return RankSlotsBody<8>(tokens, weights, slots, out);
}

[[gnu::target("arch=x86-64-v4")]] bool SharesTokenWide(std::span<const SparseDist::Entry> a,
                                                       std::span<const SparseDist::Entry> b) {
  return SharesTokenBody<8>(a, b);
}

[[gnu::target("arch=x86-64-v4")]] bool SharesTokenWide(std::span<const Token> a,
                                                       std::span<const Token> b) {
  return SharesTokenBody<8>(a, b);
}
#endif

}  // namespace

bool WideSupported() {
#if ADASERVE_WIDE_KERNELS
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

Width Chosen() {
  static const Width width = WideSupported() ? Width::kWide : Width::kNarrow;
  return width;
}

bool RankInto([[maybe_unused]] Width width, std::span<const Token> tokens,
              std::span<const double> weights, EntryScratch& out) {
#if ADASERVE_WIDE_KERNELS
  if (width == Width::kWide) {
    return RankIntoWide(tokens, weights, out);
  }
#endif
  return RankBody<2, 4>(tokens, weights, out);
}

bool RankSlots([[maybe_unused]] Width width, std::span<const Token> tokens,
               std::span<const double> weights, std::span<const uint32_t> slots,
               DistHead& out) {
#if ADASERVE_WIDE_KERNELS
  if (width == Width::kWide) {
    return RankSlotsWide(tokens, weights, slots, out);
  }
#endif
  return RankSlotsBody<4>(tokens, weights, slots, out);
}

bool SharesToken([[maybe_unused]] Width width, std::span<const SparseDist::Entry> a,
                 std::span<const SparseDist::Entry> b) {
#if ADASERVE_WIDE_KERNELS
  if (width == Width::kWide) {
    return SharesTokenWide(a, b);
  }
#endif
  return SharesTokenBody<4>(a, b);
}

bool SharesToken([[maybe_unused]] Width width, std::span<const Token> a,
                 std::span<const Token> b) {
#if ADASERVE_WIDE_KERNELS
  if (width == Width::kWide) {
    return SharesTokenWide(a, b);
  }
#endif
  return SharesTokenBody<4>(a, b);
}

}  // namespace dist_kernels

SparseDist SparseDist::FromWeights(std::span<const Token> tokens, std::span<const double> weights) {
  ADASERVE_CHECK(tokens.size() == weights.size()) << "token/weight size mismatch";
  SparseDist dist;
  if (dist_kernels::RankInto(dist_kernels::Chosen(), tokens, weights, dist.entries_)) {
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
  const double u = rng.Uniform();
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

// Appends the first `n` entries of the mixture of `a` and `b`, runs of
// distributions that share no token, to the empty `out`: each entry of a
// scaled by `weight`, each of b by 1 - weight, and sorted; all of them for
// n = kWholeDist.
template <typename Entries>
void MergeInto(std::span<const SparseDist::Entry> a, std::span<const SparseDist::Entry> b,
               double weight, size_t n, Entries& out) {
  // Scaling keeps each run in descending order, so the zero products
  // FromWeights would skip are a suffix of each run.
  const double weight_b = 1.0 - weight;
  const auto positive_prefix = [](std::span<const SparseDist::Entry> run, double w) {
    size_t k = 0;
    while (k < run.size() && w * run[k].prob > 0.0) {
      ++k;
    }
    return run.first(k);
  };
  const std::span<const SparseDist::Entry> xs = positive_prefix(a, weight);
  const std::span<const SparseDist::Entry> ys = positive_prefix(b, weight_b);
  ADASERVE_CHECK(!xs.empty() || !ys.empty()) << "distribution has no mass";
  // Merge by scaled probability, so the merged probabilities descend, but
  // an equal pair, one from each run or two that scaling rounded together,
  // is a tie whose token order the merge does not know; the closing
  // insertion pass (one comparison per entry unless a tie is out of order)
  // settles those. Sorting only reorders such a tie group, so once `n`
  // entries are out, the first entry with a strictly lower probability and
  // everything after it lie past the head: the merge stops there, keeping
  // the whole tie group the cut falls in.
  size_t i = 0;
  size_t j = 0;
  while (i < xs.size() || j < ys.size()) {
    const bool from_a =
        j == ys.size() || (i < xs.size() && weight * xs[i].prob >= weight_b * ys[j].prob);
    const SparseDist::Entry e = from_a ? SparseDist::Entry{xs[i].token, weight * xs[i].prob}
                                       : SparseDist::Entry{ys[j].token, weight_b * ys[j].prob};
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

// Appends the first `n` entries of Mix(a, b, weight) to the empty `out`;
// all of them for n = kWholeDist. The one body of Mix and MixHead.
template <typename Entries>
void MixInto(const SparseDist& a, const SparseDist& b, double weight, size_t n, Entries& out) {
  ADASERVE_CHECK(weight >= 0.0 && weight <= 1.0) << "mix weight out of range: " << weight;
  if (!dist_kernels::SharesToken(dist_kernels::Chosen(), a.entries(), b.entries())) {
    MergeInto(a.entries(), b.entries(), weight, n, out);
    return;
  }
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
  const SparseDist mixed =
      SparseDist::FromWeights({tokens.data(), tokens.size()}, {weights.data(), weights.size()});
  for (const auto& e : mixed.entries().first(std::min(n, mixed.size()))) {
    out.push_back(e);
  }
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

DistHead MixDisjointHead(std::span<const SparseDist::Entry> a,
                         std::span<const SparseDist::Entry> b, double weight, size_t n) {
  ADASERVE_CHECK(weight >= 0.0 && weight <= 1.0) << "mix weight out of range: " << weight;
  ADASERVE_CHECK(n >= 1) << "a head needs at least one entry";
  DistHead head;
  MergeInto(a, b, weight, n, head);
  return head;
}

}  // namespace adaserve
