// Candidate token-tree construction via beam search (§4.3, Step 1).
//
// The speculation phase runs d parallel draft-decoding steps; at each step
// the w extensions with the highest approximated path probabilities are kept
// (Theorem 4.1 guarantees that a depth-D_opt beam of width B covers the
// optimal tree). The resulting candidate tree has 1 + w*d nodes, depth <= d,
// and every layer after the root holds exactly w nodes. Every node the beam
// expanded carries the target draw its draft distribution was built on,
// ranked at its head, for the verifier to reuse.
//
// A step keeps at most w children of any one node, so it reads only the
// head of each frontier node's draft distribution: its top w + 1 entries,
// the last one showing whether the cut falls inside a path-probability tie.
// The tree is the one that extending every draft entry would build.
//
// Every builder rebuilds into a caller-owned TokenTree with caller-owned
// BuildScratch. A caller that keeps both across iterations builds without
// touching the heap once they have grown to its largest tree; the
// by-value overloads are thin wrappers for one-off builds.
#ifndef ADASERVE_SRC_SPEC_BEAM_SEARCH_H_
#define ADASERVE_SRC_SPEC_BEAM_SEARCH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/model/draft_lm.h"
#include "src/spec/token_tree.h"

namespace adaserve {

struct BeamConfig {
  // Number of draft decoding steps (candidate tree depth d).
  int depth = 4;
  // Beam width w: nodes retained per step.
  int width = 2;
};

// Buffers a tree builder reuses from one call to the next: the draft
// context ExpandNode extends, and a step's frontiers and extensions.
struct BuildScratch {
  // A candidate child of a beam step: `token` under `parent`.
  struct Extension {
    NodeId parent;
    Token token;
    double cond_prob;
    double path_prob;
  };

  std::vector<Token> context;
  std::vector<NodeId> frontier;
  std::vector<NodeId> next_frontier;
  std::vector<Extension> extensions;
};

// Expands `node` of a tree built on a committed sequence for `stream`:
// returns the first `n` entries (kWholeDist: all) of the draft
// distribution at committed + the node's path, and attaches to the node
// the target draw it was built on, ranked at HeadSlots(max(n,
// kSampleHead)) (kSampleHead for kWholeDist) so the verifier's sampler
// reads the rank as it is. Expanding a node again reuses the attached
// draw. `context` must hold exactly the committed sequence, and does again
// on return. All tree builders expand nodes through this.
DistHead ExpandNode(const DraftLm& draft, uint64_t stream, NodeId node, size_t n,
                    std::vector<Token>& context, TokenTree& tree);

// How many leading entries of `head`, a node's draft head, a beam step of
// `width` must extend when the node's path probability is `parent_path`:
// the first `width`, plus every later entry whose path product ties the
// width-th's. The step ranks tied products by token, so such an entry can
// outrank an earlier one. A result above `width` may need a longer head.
size_t ExtensionCut(std::span<const SparseDist::Entry> head, double parent_path, size_t width);

// Rebuilds `tree` as the candidate token tree for one request. `committed`
// is the request's committed token sequence (prompt surrogate + outputs);
// the tree root anchors on its last token. Whatever `tree` and `scratch`
// held before does not affect the result.
void BuildCandidateTree(const DraftLm& draft, uint64_t stream, std::span<const Token> committed,
                        const BeamConfig& config, BuildScratch& scratch, TokenTree& tree);
TokenTree BuildCandidateTree(const DraftLm& draft, uint64_t stream,
                             std::span<const Token> committed, const BeamConfig& config);

}  // namespace adaserve

#endif  // ADASERVE_SRC_SPEC_BEAM_SEARCH_H_
