// Sequence-based speculation, the strategy of vLLM-Spec(k) (§6.1).
//
// The draft model proposes a fixed-length greedy chain of k tokens; the
// chain is a degenerate (single-path) token tree, verified with the same
// lossless verifier as AdaServe's trees. Like every tree builder, it
// rebuilds into a caller-owned tree and scratch (see beam_search.h).
#ifndef ADASERVE_SRC_SPEC_SEQUENCE_SPEC_H_
#define ADASERVE_SRC_SPEC_SEQUENCE_SPEC_H_

#include <span>

#include "src/model/draft_lm.h"
#include "src/spec/beam_search.h"
#include "src/spec/token_tree.h"

namespace adaserve {

// Rebuilds `tree` as the k-token greedy draft chain for one request: k + 1
// nodes (root + chain).
void BuildChainTree(const DraftLm& draft, uint64_t stream, std::span<const Token> committed, int k,
                    BuildScratch& scratch, TokenTree& tree);
TokenTree BuildChainTree(const DraftLm& draft, uint64_t stream, std::span<const Token> committed,
                         int k);

}  // namespace adaserve

#endif  // ADASERVE_SRC_SPEC_SEQUENCE_SPEC_H_
