// Algorithm 1: optimal token-tree construction with oracle path
// probabilities (§4.1, Appendix C).
//
// The optimal algorithm assumes f(v) is known for every node of the
// infinite token tree T_inf(r). In this reproduction the oracle is the
// target model itself: f(v) is the product of target conditionals along the
// path, which (see verifier.h) is exactly the acceptance probability of v.
// T_inf is materialised lazily: a per-request best-first frontier expands a
// node's children only when the node is added to the tree, so the algorithm
// touches O(budget * support) nodes despite T_inf being infinite.
//
// This module exists for two purposes: (1) the optimality/INVALID property
// tests mandated by Appendix C, and (2) the selection-ablation bench that
// compares practical SLO-customized selection against the oracle.
#ifndef ADASERVE_SRC_CORE_OPTIMAL_H_
#define ADASERVE_SRC_CORE_OPTIMAL_H_

#include <span>
#include <vector>

#include "src/model/synthetic_lm.h"
#include "src/spec/token_tree.h"

namespace adaserve {

struct OracleRequest {
  uint64_t stream = 0;
  // Committed token sequence (context for the oracle).
  std::span<const Token> committed;
  // SLO requirement A(r) in expected accepted tokens (>= includes the
  // implicit 1.0 from the bonus token).
  double a_req = 1.0;
};

// Safety bound on tree depth during lazy expansion.
inline constexpr int kMaxOracleDepth = 64;

struct OptimalOutput {
  // False iff Algorithm 1 returned INVALID: the budget cannot satisfy all
  // A(r) simultaneously (Appendix C, Part 1: then no feasible solution
  // exists).
  bool valid = false;
  // Per-request constructed draft token trees (root + selected nodes).
  std::vector<TokenTree> trees;
  // Per-request expected accepted tokens n_acc (>= 1.0, counting the bonus).
  std::vector<double> expected;
  // Speculated tokens used across all trees (roots excluded).
  int tokens_used = 0;

  // Objective value: total expected accepted tokens (Eq. 6) including the
  // n bonus tokens.
  double TotalExpected() const;
};

// Runs Algorithm 1 with `budget` speculated tokens (roots are free, matching
// Algorithm 1's accounting where only added nodes decrement B).
OptimalOutput OptimalConstruct(const SyntheticLm& oracle, std::span<const OracleRequest> requests,
                               int budget);

}  // namespace adaserve

#endif  // ADASERVE_SRC_CORE_OPTIMAL_H_
