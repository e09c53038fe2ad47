// Lossless tree verification (§4.3, Step 4).
//
// The verifier walks the selected subtree from the root: at each node it
// draws the target model's next token (sampled in stochastic mode, argmax in
// greedy mode) and follows the matching selected child if one exists;
// otherwise the drawn token becomes the correction/bonus token and the walk
// stops. Because every committed token is drawn directly from the target
// distribution conditioned on the accepted prefix, the committed stream is
// distributed exactly as target-model ancestral sampling — speculation only
// changes latency, never outputs. Under this scheme the acceptance
// probability of node v is the product of target conditionals along its
// path, which is precisely the path probability f(v) of Theorem 3.1 that
// the draft model approximates (Eq. 7).
#ifndef ADASERVE_SRC_SPEC_VERIFIER_H_
#define ADASERVE_SRC_SPEC_VERIFIER_H_

#include <span>
#include <vector>

#include "src/common/arena.h"
#include "src/model/sampler.h"
#include "src/model/synthetic_lm.h"
#include "src/spec/token_tree.h"

namespace adaserve {

struct VerifyResult {
  // Accepted speculated tokens, in path order. Inline up to the deepest
  // default tree, so verification does not allocate.
  SmallVector<Token, 8> accepted;
  // Target-drawn token committed after the accepted path (always present).
  Token bonus = kInvalidToken;
  // Number of speculated tokens submitted for verification (selected nodes,
  // root excluded).
  int tokens_verified = 0;

  // Tokens committed by this verification: accepted + bonus.
  int TokensCommitted() const { return static_cast<int>(accepted.size()) + 1; }
};

// Verifies the subtree of `tree` marked by `selected` (indexed by NodeId;
// the root is implicitly selected; pass an empty vector to select the whole
// tree). `committed` is the request's committed sequence, the one the tree
// was built on. Nodes carrying a target draw `target` made for `stream`
// (see TokenTree::AttachTargetDraw) sample from it as it is ranked
// (SampleRanked); the others call target.Draw and rank its head
// (SampleToken). Either way the drawn tokens and the Rng state are those
// of sampling target.NextDist.
VerifyResult VerifyTree(const SyntheticLm& target, uint64_t stream,
                        std::span<const Token> committed, const TokenTree& tree,
                        const std::vector<char>& selected, DecodeMode mode, Rng& rng);

// Plain auto-regressive decoding of one token (what continuous-batching
// baselines do each iteration): one target draw, ranked only at the
// sampler's head (SampleToken).
Token DecodeOneToken(const SyntheticLm& target, uint64_t stream, std::span<const Token> committed,
                     DecodeMode mode, Rng& rng);

}  // namespace adaserve

#endif  // ADASERVE_SRC_SPEC_VERIFIER_H_
