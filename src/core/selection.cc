#include "src/core/selection.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/common/logging.h"

namespace adaserve {

TokenSelector::TokenSelector(const SelectionConfig& config) : config_(config) {
  ADASERVE_CHECK(config_.n_max >= 0) << "negative n_max";
}

TokenSelector::TokenSelector(std::span<const SelectionRequest> requests,
                             const SelectionConfig& config)
    : TokenSelector(config) {
  Reset(requests);
}

void TokenSelector::Reset(std::span<const SelectionRequest> requests) {
  requests_.assign(requests.begin(), requests.end());
  const size_t n = requests_.size();
  if (cursors_.size() < n) {
    cursors_.resize(n);
  }
  std::vector<std::vector<char>>& masks = result_.selected;
  while (masks.size() > n) {
    spare_masks_.push_back(std::move(masks.back()));
    masks.pop_back();
  }
  while (masks.size() < n && !spare_masks_.empty()) {
    masks.push_back(std::move(spare_masks_.back()));
    spare_masks_.pop_back();
  }
  masks.resize(n);
  result_.expected.assign(n, 1.0);
  result_.taken.assign(n, 0);
  result_.total_taken = 0;
  result_.all_slo_met = true;
  for (size_t i = 0; i < n; ++i) {
    const TokenTree* tree = requests_[i].tree;
    ADASERVE_CHECK(tree != nullptr) << "null candidate tree";
    tree->NodesByPathProb(cursors_[i].order);
    cursors_[i].next = 0;
    masks[i].assign(static_cast<size_t>(tree->size()), 0);
    masks[i][kRootNode] = 1;
  }
}

double TokenSelector::NextProb(size_t req_idx) const {
  const Cursor& cur = cursors_[req_idx];
  if (cur.next >= cur.order.size()) {
    return -1.0;
  }
  return requests_[req_idx].tree->node(cur.order[cur.next]).path_prob;
}

bool TokenSelector::TakeNext(size_t req_idx) {
  Cursor& cur = cursors_[req_idx];
  if (cur.next >= cur.order.size()) {
    return false;
  }
  const NodeId id = cur.order[cur.next++];
  result_.selected[req_idx][static_cast<size_t>(id)] = 1;
  result_.expected[req_idx] += requests_[req_idx].tree->node(id).path_prob;
  ++result_.taken[req_idx];
  ++result_.total_taken;
  return true;
}

int TokenSelector::SloPhase(int budget) {
  // Requests in descending A_cap order: slower requests (larger unmet
  // requirement) get budget first when it is scarce (§4.3 Step 2). Ties
  // keep batch order; the indices are distinct, so that order is total.
  slo_order_.resize(requests_.size());
  std::iota(slo_order_.begin(), slo_order_.end(), 0);
  std::sort(slo_order_.begin(), slo_order_.end(), [this](size_t a, size_t b) {
    if (requests_[a].a_cap != requests_[b].a_cap) {
      return requests_[a].a_cap > requests_[b].a_cap;
    }
    return a < b;
  });
  int used = 0;
  for (size_t idx : slo_order_) {
    while (result_.expected[idx] < requests_[idx].a_cap &&
           result_.taken[idx] < config_.n_max && used < budget) {
      if (!TakeNext(idx)) {
        break;  // Candidate tree exhausted below the requirement.
      }
      ++used;
    }
    if (result_.expected[idx] < requests_[idx].a_cap) {
      result_.all_slo_met = false;
    }
  }
  return used;
}

int TokenSelector::ThroughputPhase(int budget) {
  int used = 0;
  while (used < budget) {
    // Globally best next candidate across all requests. Linear scan: the
    // number of concurrent requests is modest and this keeps the hot path
    // allocation-free.
    double best_prob = -1.0;
    size_t best_idx = 0;
    for (size_t i = 0; i < requests_.size(); ++i) {
      const double p = NextProb(i);
      if (p > best_prob) {
        best_prob = p;
        best_idx = i;
      }
    }
    if (best_prob < 0.0) {
      break;  // All candidate trees exhausted.
    }
    TakeNext(best_idx);
    ++used;
  }
  return used;
}

SelectionResult SelectTokens(std::span<const SelectionRequest> requests, int budget,
                             const SelectionConfig& config) {
  TokenSelector selector(requests, config);
  const int used = selector.SloPhase(budget);
  selector.ThroughputPhase(budget - used);
  return selector.result();
}

}  // namespace adaserve
