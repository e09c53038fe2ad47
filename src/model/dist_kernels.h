// Vector kernels behind SparseDist::FromWeights, Mix, SyntheticLm::Draw and
// SyntheticLm::RankHead, at two widths. Internal: the library picks a
// width once per process; tests and micro benchmarks call each width
// directly.
//
// Each kernel has one body, a template over its lane count written with
// GCC/Clang vector extensions, instantiated twice:
//   - narrow: 2 double lanes and 4 token lanes (one SSE2 register each),
//     and one draw slot at a time, for the baseline x86-64 build;
//   - wide: 8 lanes, compiled for x86-64-v4 (AVX-512) inside a
//     target-attributed wrapper and taken only on CPUs that have it.
// The narrow width must stay narrow: baseline code lowers wider vectors
// piecewise through memory, several times slower than either width.
// Lane-wise IEEE compares, divisions, multiplies and adds round the same at
// any width, so both widths return the same bits. That needs the library
// built with -ffp-contract=off: otherwise a v4 body may fuse a * b + c into
// one FMA, which rounds once instead of twice.
#ifndef ADASERVE_SRC_MODEL_DIST_KERNELS_H_
#define ADASERVE_SRC_MODEL_DIST_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/common/arena.h"
#include "src/common/types.h"
#include "src/model/distribution.h"

#if defined(__x86_64__)
#define ADASERVE_WIDE_KERNELS 1
#else
#define ADASERVE_WIDE_KERNELS 0
#endif

namespace adaserve::dist_kernels {

// N lanes of T as one GCC/Clang vector. Vectors wider than the function's
// target ISA pass by reference only: by value they change the ABI.
template <typename T, size_t N>
struct LanesOf {
  typedef T type __attribute__((vector_size(N * sizeof(T))));
};
template <typename T, size_t N>
using Lanes = typename LanesOf<T, N>::type;

// The kernels' widths. A kernel takes kWide only where WideSupported().
enum class Width { kNarrow, kWide };

// True if this CPU runs the wide kernels: x86-64 with AVX-512 F, DQ, BW and
// VL. Always false on other targets, where the wide kernels compile out.
bool WideSupported();

// The width every library call takes: wide where supported. Picked once per
// process.
Width Chosen();

// The widest input RankInto takes: a setup's 24-token target or noise
// support.
inline constexpr size_t kRankWidth = 24;

// Inline scratch the kernels append to: a setup's supports never spill.
using EntryScratch = SmallVector<SparseDist::Entry, SparseDist::kInlineSupport>;
using TokenScratch = SmallVector<Token, kRankWidth>;
using WeightScratch = SmallVector<double, kRankWidth>;

// FromWeights for the shape nearly every call has: n = 1..kRankWidth
// entries, every weight positive, no token twice and none equal to a pad
// lane's (INT32_MIN + i for i = n..kRankWidth - 1). Appends the
// distribution to the empty `out` and returns true; returns false, leaving
// `out` empty, for any other input.
bool RankInto(Width width, std::span<const Token> tokens, std::span<const double> weights,
              EntryScratch& out);

// The entries of FromWeights(tokens, weights) at `slots` (distinct indices
// into tokens), in FromWeights' order and with its bits: each slot's weight
// over the total of every weight, summed in input order. Takes the inputs
// RankInto takes; for those it appends the entries to the empty `out` and
// returns true, and for any other it returns false, leaving `out` empty.
// Ranks only the slots, so a head of a few entries skips the full rank.
bool RankSlots(Width width, std::span<const Token> tokens, std::span<const double> weights,
               std::span<const uint32_t> slots, DistHead& out);

// True if some token of `b` is also a token of `a`.
bool SharesToken(Width width, std::span<const SparseDist::Entry> a,
                 std::span<const SparseDist::Entry> b);
bool SharesToken(Width width, std::span<const Token> a, std::span<const Token> b);

// SyntheticLm::Draw's support draw from the context hash `h`. Slot i
// (of zipf.size()) takes SplitMix64 outputs 2i + 1 and 2i + 2 from state
// `h`, r1 and r2: token r1 % vocab_size, weight
// zipf[i] * (1 + jitter * (2u - 1)) for u the top 53 bits of r2 over 2^53.
// Appends each slot to the empty `tokens` and `weights`.
void DrawSupport(Width width, uint64_t h, uint64_t vocab_size, double jitter,
                 std::span<const double> zipf, TokenScratch& tokens, WeightScratch& weights);

}  // namespace adaserve::dist_kernels

#endif  // ADASERVE_SRC_MODEL_DIST_KERNELS_H_
