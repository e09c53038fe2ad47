#include "src/spec/token_tree.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace adaserve {

TokenTree::TokenTree(Token root_token) { Reset(root_token); }

void TokenTree::Reset(Token root_token) {
  nodes_.clear();
  Node root;
  root.token = root_token;
  nodes_.push_back(root);
  target_draws_.clear();
  draw_model_ = nullptr;
  draw_stream_ = 0;
}

NodeId TokenTree::AddNode(NodeId parent, Token token, double cond_prob) {
  ADASERVE_CHECK(parent >= 0 && parent < size()) << "bad parent " << parent;
  ADASERVE_CHECK(cond_prob > 0.0 && cond_prob <= 1.0) << "bad cond_prob " << cond_prob;
  Node& p = nodes_[static_cast<size_t>(parent)];
  Node child;
  child.token = token;
  child.parent = parent;
  child.cond_prob = cond_prob;
  child.path_prob = p.path_prob * cond_prob;
  child.depth = p.depth + 1;
  const auto id = static_cast<NodeId>(nodes_.size());
  p.children.push_back(id);
  nodes_.push_back(child);
  return id;
}

void TokenTree::Reserve(int nodes, int expanded) {
  nodes_.reserve(static_cast<size_t>(nodes));
  target_draws_.reserve(static_cast<size_t>(expanded));
}

int TokenTree::MaxDepth() const {
  int depth = 0;
  for (const Node& n : nodes_) {
    depth = std::max(depth, n.depth);
  }
  return depth;
}

std::vector<Token> TokenTree::PathTokens(NodeId id) const {
  ADASERVE_CHECK(id >= 0 && id < size()) << "bad node " << id;
  std::vector<Token> path;
  for (NodeId cur = id; cur != kRootNode; cur = nodes_[static_cast<size_t>(cur)].parent) {
    path.push_back(nodes_[static_cast<size_t>(cur)].token);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

double TokenTree::SumPathProb(const std::vector<NodeId>& ids) const {
  double sum = 0.0;
  for (NodeId id : ids) {
    if (id != kRootNode) {
      sum += nodes_[static_cast<size_t>(id)].path_prob;
    }
  }
  return sum;
}

void TokenTree::NodesByPathProb(std::vector<NodeId>& ids) const {
  ids.clear();
  ids.reserve(nodes_.size() - 1);
  for (NodeId id = 1; id < size(); ++id) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(), [this](NodeId a, NodeId b) {
    const Node& na = nodes_[static_cast<size_t>(a)];
    const Node& nb = nodes_[static_cast<size_t>(b)];
    if (na.path_prob != nb.path_prob) {
      return na.path_prob > nb.path_prob;
    }
    if (na.depth != nb.depth) {
      return na.depth < nb.depth;
    }
    return a < b;
  });
}

bool TokenTree::IsConnectedSelection(const std::vector<char>& selected) const {
  if (selected.size() != nodes_.size()) {
    return false;
  }
  for (NodeId id = 1; id < size(); ++id) {
    if (selected[static_cast<size_t>(id)]) {
      const NodeId parent = nodes_[static_cast<size_t>(id)].parent;
      if (parent != kRootNode && !selected[static_cast<size_t>(parent)]) {
        return false;
      }
    }
  }
  return true;
}

SupportDraw& TokenTree::AttachTargetDraw(NodeId id, const SyntheticLm& model, uint64_t stream) {
  ADASERVE_CHECK(id >= 0 && id < size()) << "bad node " << id;
  if (target_draws_.empty()) {
    draw_model_ = &model;
    draw_stream_ = stream;
  }
  ADASERVE_CHECK(draw_model_ == &model && draw_stream_ == stream)
      << "a tree's target draws must share one model and stream";
  Node& n = nodes_[static_cast<size_t>(id)];
  ADASERVE_CHECK(n.target_draw < 0) << "node " << id << " already has a target draw";
  n.target_draw = static_cast<int>(target_draws_.size());
  return target_draws_.emplace_back();
}

const SupportDraw* TokenTree::TargetDraw(NodeId id, const SyntheticLm& model,
                                         uint64_t stream) const {
  const int index = nodes_[static_cast<size_t>(id)].target_draw;
  if (index < 0 || draw_model_ != &model || draw_stream_ != stream) {
    return nullptr;
  }
  return &target_draws_[static_cast<size_t>(index)];
}

SupportDraw* TokenTree::TargetDraw(NodeId id, const SyntheticLm& model, uint64_t stream) {
  return const_cast<SupportDraw*>(std::as_const(*this).TargetDraw(id, model, stream));
}

void TokenTree::ClearTargetDraws() {
  for (Node& n : nodes_) {
    n.target_draw = -1;
  }
  target_draws_.clear();
  draw_model_ = nullptr;
}

}  // namespace adaserve
