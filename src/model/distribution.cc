#include "src/model/distribution.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/logging.h"

namespace adaserve {
namespace {

// Hash-index slots that live on the stack: enough for any input of up to
// 128 weights (a target support plus a draft mixture's union) at the
// index's load factor of at most 1/2.
constexpr size_t kInlineSlots = 256;

// Fibonacci hashing of a token onto a power-of-two table of 2^(64 - shift)
// slots; negative ids hash like any other bit pattern.
size_t SlotOf(Token token, int shift) {
  return static_cast<size_t>(
      (static_cast<uint64_t>(static_cast<uint32_t>(token)) * 0x9e3779b97f4a7c15ULL) >> shift);
}

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
// tokens under all four rotations, which covers all sixteen pairs.
bool SharesToken(const SparseDist& a, const SparseDist& b) {
  if (a.empty()) {
    return false;
  }
  SmallVector<TokenLanes, (SparseDist::kInlineSupport + 3) / 4> groups;
  for (size_t i = 0; i < a.size(); i += 4) {
    groups.push_back(TokensAt(a.entries(), i));
  }
  TokenLanes hits0 = {};
  TokenLanes hits1 = {};
  TokenLanes hits2 = {};
  TokenLanes hits3 = {};
  for (size_t j = 0; j < b.size(); j += 4) {
    const TokenLanes b0 = TokensAt(b.entries(), j);
    const TokenLanes b1 = __builtin_shufflevector(b0, b0, 1, 2, 3, 0);
    const TokenLanes b2 = __builtin_shufflevector(b0, b0, 2, 3, 0, 1);
    const TokenLanes b3 = __builtin_shufflevector(b0, b0, 3, 0, 1, 2);
    for (const TokenLanes& g : groups) {
      hits0 |= g == b0;
      hits1 |= g == b1;
      hits2 |= g == b2;
      hits3 |= g == b3;
    }
  }
  const TokenLanes hits = (hits0 | hits1) | (hits2 | hits3);
  return (hits[0] | hits[1] | hits[2] | hits[3]) != 0;
}

}  // namespace

SparseDist SparseDist::FromWeights(std::span<const Token> tokens, std::span<const double> weights) {
  ADASERVE_CHECK(tokens.size() == weights.size()) << "token/weight size mismatch";
  // Duplicates are coalesced through an open-addressing index (token ->
  // 1 + output position, 0 = empty slot) sized to at least twice the
  // input, so a lookup is one or two probes instead of a scan of the
  // output. Per-token weight sums and the total accumulate in input order
  // and entries are appended in first-appearance order, exactly as a
  // linear-scan coalescing does, so every double -- and therefore the
  // sorted entry array -- matches it bit for bit (distribution_test keeps
  // that scan as the reference).
  const size_t capacity = std::bit_ceil(std::max<size_t>(2 * tokens.size(), 2));
  const int shift = 64 - std::countr_zero(capacity);
  // Left uninitialised: only the first `capacity` slots are used, and
  // exactly those are zeroed below.
  std::array<uint32_t, kInlineSlots> inline_slots;
  std::vector<uint32_t> heap_slots;
  uint32_t* slots = inline_slots.data();
  if (capacity > kInlineSlots) {
    heap_slots.resize(capacity);
    slots = heap_slots.data();
  } else {
    std::fill_n(slots, capacity, 0U);
  }

  SparseDist dist;
  SmallVector<Entry, kInlineSupport>& entries = dist.entries_;
  double total = 0.0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    ADASERVE_CHECK(weights[i] >= 0.0) << "negative weight for token " << tokens[i];
    if (weights[i] <= 0.0) {
      continue;
    }
    total += weights[i];
    size_t slot = SlotOf(tokens[i], shift);
    while (slots[slot] != 0 && entries[slots[slot] - 1].token != tokens[i]) {
      slot = (slot + 1) & (capacity - 1);
    }
    if (slots[slot] == 0) {
      entries.push_back({tokens[i], weights[i]});
      slots[slot] = static_cast<uint32_t>(entries.size());
    } else {
      entries[slots[slot] - 1].prob += weights[i];
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
