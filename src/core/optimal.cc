#include "src/core/optimal.h"

#include <algorithm>
#include <numeric>
#include <queue>

#include "src/common/logging.h"

namespace adaserve {
namespace {

// A not-yet-added node of the lazily materialised T_inf.
struct Frontier {
  double path_prob;
  NodeId parent;  // Node id in the request's constructed tree.
  Token token;
  double cond_prob;
  int depth;

  bool operator<(const Frontier& other) const {
    // std::priority_queue is a max-heap on operator<.
    return path_prob < other.path_prob;
  }
};

class LazyInfiniteTree {
 public:
  LazyInfiniteTree(const SyntheticLm& oracle, const OracleRequest& request)
      : oracle_(oracle),
        request_(request),
        tree_(request.committed.empty() ? kInvalidToken : request.committed.back()) {
    Expand(kRootNode);
  }

  // Highest path probability available; -1 when exhausted.
  double TopProb() const { return frontier_.empty() ? -1.0 : frontier_.top().path_prob; }

  // Pops the best frontier node, adds it to the tree, expands its children.
  // Returns its path probability.
  double TakeTop() {
    ADASERVE_CHECK(!frontier_.empty()) << "TakeTop on exhausted frontier";
    const Frontier top = frontier_.top();
    frontier_.pop();
    const NodeId id = tree_.AddNode(top.parent, top.token, top.cond_prob);
    if (top.depth < kMaxOracleDepth) {
      Expand(id);
    }
    return top.path_prob;
  }

  TokenTree&& TakeTree() { return std::move(tree_); }

 private:
  void Expand(NodeId id) {
    std::vector<Token> context(request_.committed.begin(), request_.committed.end());
    const std::vector<Token> path = tree_.PathTokens(id);
    context.insert(context.end(), path.begin(), path.end());
    const SparseDist dist = oracle_.NextDist(request_.stream, context);
    const double parent_prob = tree_.node(id).path_prob;
    const int depth = tree_.node(id).depth;
    for (const auto& e : dist.entries()) {
      frontier_.push({parent_prob * e.prob, id, e.token, e.prob, depth + 1});
    }
  }

  const SyntheticLm& oracle_;
  const OracleRequest& request_;
  TokenTree tree_;
  std::priority_queue<Frontier> frontier_;
};

}  // namespace

double OptimalOutput::TotalExpected() const {
  return std::accumulate(expected.begin(), expected.end(), 0.0);
}

OptimalOutput OptimalConstruct(const SyntheticLm& oracle, std::span<const OracleRequest> requests,
                               int budget) {
  OptimalOutput out;
  const size_t n = requests.size();
  std::vector<LazyInfiniteTree> lazy;
  lazy.reserve(n);
  for (const OracleRequest& req : requests) {
    lazy.emplace_back(oracle, req);
  }
  out.expected.assign(n, 1.0);

  int remaining = budget;
  // Step 1: satisfy SLO requirements, hardest (largest A) first so partial
  // budgets favour the requests that need them, per Algorithm 2's ordering.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return requests[a].a_req > requests[b].a_req; });
  for (size_t idx : order) {
    while (out.expected[idx] < requests[idx].a_req) {
      if (remaining <= 0 || lazy[idx].TopProb() < 0.0) {
        // INVALID: the greedy prefix is token-minimal (Lemma C.1), so no
        // allocation within the budget can satisfy every A(r).
        out.valid = false;
        return out;
      }
      out.expected[idx] += lazy[idx].TakeTop();
      ++out.tokens_used;
      --remaining;
    }
  }

  // Step 2: spend the remaining budget on the globally best nodes (Eq. 6).
  while (remaining > 0) {
    double best = -1.0;
    size_t best_idx = 0;
    for (size_t i = 0; i < n; ++i) {
      if (lazy[i].TopProb() > best) {
        best = lazy[i].TopProb();
        best_idx = i;
      }
    }
    if (best < 0.0) {
      break;
    }
    out.expected[best_idx] += lazy[best_idx].TakeTop();
    ++out.tokens_used;
    --remaining;
  }

  out.valid = true;
  out.trees.reserve(n);
  for (LazyInfiniteTree& t : lazy) {
    out.trees.push_back(t.TakeTree());
  }
  return out;
}

}  // namespace adaserve
