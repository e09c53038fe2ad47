#include "src/spec/verifier.h"

#include "src/common/logging.h"

namespace adaserve {

VerifyResult VerifyTree(const SyntheticLm& target, uint64_t stream,
                        std::span<const Token> committed, const TokenTree& tree,
                        const std::vector<char>& selected, DecodeMode mode, Rng& rng) {
  const bool select_all = selected.empty();
  ADASERVE_CHECK(select_all || selected.size() == static_cast<size_t>(tree.size()))
      << "selection mask size mismatch";

  VerifyResult result;
  if (!select_all) {
    for (NodeId id = 1; id < tree.size(); ++id) {
      if (selected[static_cast<size_t>(id)]) {
        ++result.tokens_verified;
      }
    }
  } else {
    result.tokens_verified = tree.size() - 1;
  }

  SupportDraw computed;
  NodeId cur = kRootNode;
  while (true) {
    // The builders attached the target draw of every node they expanded,
    // ranked as far as the sampler reads; only the others (the last layer,
    // hand-built trees) need it drawn here, at committed + the accepted
    // path.
    const SupportDraw* draw = tree.TargetDraw(cur, target, stream);
    Token drawn = kInvalidToken;
    if (draw != nullptr) {
      drawn = SampleRanked(*draw, mode, rng);
    } else {
      target.Draw(stream, committed, {result.accepted.data(), result.accepted.size()}, computed);
      drawn = SampleToken(target, computed, mode, rng);
    }
    NodeId match = kInvalidNode;
    for (NodeId child : tree.node(cur).children) {
      const bool is_selected = select_all || selected[static_cast<size_t>(child)] != 0;
      if (is_selected && tree.node(child).token == drawn) {
        match = child;
        break;
      }
    }
    if (match == kInvalidNode) {
      result.bonus = drawn;
      break;
    }
    result.accepted.push_back(drawn);
    cur = match;
  }
  return result;
}

Token DecodeOneToken(const SyntheticLm& target, uint64_t stream, std::span<const Token> committed,
                     DecodeMode mode, Rng& rng) {
  SupportDraw draw;
  target.Draw(stream, committed, draw);
  return SampleToken(target, draw, mode, rng);
}

}  // namespace adaserve
