// Token selection phases of SLO-customized speculative decoding
// (Algorithm 2, §4.3 Steps 2-3).
//
// Given each request's candidate token tree (from beam search) and its
// capped SLO requirement A_cap(r), selection builds the draft token trees:
//   - SLO-customized phase: requests in descending A_cap order each take
//     their highest-path-probability candidates until the cumulative
//     expected accepted tokens reach A_cap, bounded by the per-request
//     token limit n_max and the remaining budget.
//   - Throughput-optimized phase: remaining budget goes to the globally
//     highest-path-probability candidates across all requests.
// Because candidates are consumed in per-tree descending-path-probability
// order, every selection is a connected subtree (Appendix B).
//
// A TokenSelector kept across iterations and Reset for each batch reuses
// its cursors, orders and masks: after the largest batch and trees it has
// seen, selecting allocates nothing.
#ifndef ADASERVE_SRC_CORE_SELECTION_H_
#define ADASERVE_SRC_CORE_SELECTION_H_

#include <span>
#include <vector>

#include "src/spec/token_tree.h"

namespace adaserve {

struct SelectionConfig {
  // Per-request cap on tokens taken during the SLO-customized phase
  // (prevents low-probability candidates from monopolising the budget).
  int n_max = 16;
};

struct SelectionRequest {
  const TokenTree* tree = nullptr;
  // Capped SLO requirement A_cap(r); expected accepted tokens start at 1.0
  // (the always-committed bonus/correction token).
  double a_cap = 1.0;
};

struct SelectionResult {
  // Per request: node mask over its candidate tree (root always selected).
  std::vector<std::vector<char>> selected;
  // Per request: cumulative expected accepted tokens n_acc (>= 1.0).
  std::vector<double> expected;
  // Per request: number of non-root tokens selected.
  std::vector<int> taken;
  int total_taken = 0;
  // True if every request's n_acc reached its A_cap.
  bool all_slo_met = true;
};

// Stateful selector so the two phases can compose with other budget
// consumers (AdaServe interleaves chunked prefill between them).
class TokenSelector {
 public:
  // A selector over no requests; Reset starts a selection.
  explicit TokenSelector(const SelectionConfig& config = {});
  TokenSelector(std::span<const SelectionRequest> requests, const SelectionConfig& config);

  // Starts a selection over `requests`, exactly as a fresh selector would,
  // refilling the storage of earlier selections in place. The trees must
  // outlive the selection.
  void Reset(std::span<const SelectionRequest> requests);

  // Runs the SLO-customized phase with a budget of `budget` speculated
  // tokens; returns the number consumed.
  int SloPhase(int budget);

  // Runs the throughput-optimized phase; returns the number consumed.
  int ThroughputPhase(int budget);

  const SelectionResult& result() const { return result_; }

 private:
  struct Cursor {
    // Candidate node ids in descending path-probability order.
    std::vector<NodeId> order;
    size_t next = 0;
  };

  bool TakeNext(size_t req_idx);
  double NextProb(size_t req_idx) const;

  std::vector<SelectionRequest> requests_;
  SelectionConfig config_;
  // At least one cursor per request; those past the batch keep their
  // storage for a larger one.
  std::vector<Cursor> cursors_;
  SelectionResult result_;
  // Masks of earlier, larger batches, kept for their capacity.
  std::vector<std::vector<char>> spare_masks_;
  // SloPhase's request order.
  std::vector<size_t> slo_order_;
};

// Convenience wrapper: both phases back to back over one budget.
SelectionResult SelectTokens(std::span<const SelectionRequest> requests, int budget,
                             const SelectionConfig& config = {});

}  // namespace adaserve

#endif  // ADASERVE_SRC_CORE_SELECTION_H_
