// Steady-state speculation allocates nothing. Once a caller's trees,
// builder scratch and selector have grown to its largest batch, rebuilding
// every tree, running both selection phases over them and verifying the
// selections never reach the global operator new, which this binary
// replaces with a counting one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "src/baselines/static_tree_spec.h"
#include "src/core/selection.h"
#include "src/harness/experiment.h"
#include "src/spec/beam_search.h"
#include "src/spec/verifier.h"

namespace {

std::atomic<long> g_allocations{0};

}  // namespace

// None of these is inlined: GCC would otherwise see malloc() or free()
// paired with operator delete or new at inlined sites and warn
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace adaserve {
namespace {

long Allocations() { return g_allocations.load(std::memory_order_relaxed); }

// Committed sequences of a few lengths.
std::vector<std::vector<Token>> Contexts(size_t n) {
  std::vector<std::vector<Token>> contexts;
  Rng rng(3);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Token> committed(8 + 8 * (i % 5));
    for (Token& t : committed) {
      t = static_cast<Token>(rng.UniformInt(32000));
    }
    contexts.push_back(std::move(committed));
  }
  return contexts;
}

TEST(SpeculationAllocations, RebuildSelectAndVerifyAllocateNothingOnceWarm) {
  const Experiment exp(LlamaSetup());
  constexpr size_t kBatch = 24;
  const std::vector<std::vector<Token>> contexts = Contexts(kBatch);
  std::vector<TokenTree> trees(kBatch, TokenTree(kInvalidToken));
  std::vector<SelectionRequest> requests(kBatch);
  BuildScratch scratch;
  TokenSelector selector;
  Rng rng(11);
  long accepted = 0;
  // One speculate-select-verify pass over the first `batch` requests.
  const auto iteration = [&](size_t batch, const BeamConfig& beam, uint64_t stream_base) {
    for (size_t i = 0; i < batch; ++i) {
      BuildCandidateTree(exp.draft(), stream_base + i, contexts[i], beam, scratch, trees[i]);
      requests[i] = {.tree = &trees[i], .a_cap = 1.0 + 0.25 * static_cast<double>(i % 8)};
    }
    selector.Reset(std::span(requests).first(batch));
    const int used = selector.SloPhase(64);
    selector.ThroughputPhase(96 - used);
    for (size_t i = 0; i < batch; ++i) {
      accepted += static_cast<long>(VerifyTree(exp.target(), stream_base + i, contexts[i],
                                               trees[i], selector.result().selected[i],
                                               DecodeMode::kStochastic, rng)
                                        .accepted.size());
    }
  };
  // Warm: the widest, deepest beam over the whole batch, then a batch
  // that shrinks and grows back.
  for (size_t batch : {kBatch, size_t{1}, kBatch}) {
    iteration(batch, BeamConfig{.depth = 8, .width = 4}, 0);
  }

  const long before = Allocations();
  // New streams, batches that shrink and grow back, every beam shape.
  uint64_t stream_base = 1000;
  for (size_t batch : {kBatch, size_t{5}, size_t{17}, size_t{1}, kBatch}) {
    for (int depth = 1; depth <= 8; ++depth) {
      for (int width = 1; width <= 4; ++width) {
        iteration(batch, BeamConfig{.depth = depth, .width = width}, stream_base);
        stream_base += kBatch;
      }
    }
  }
  const long during = Allocations() - before;
  EXPECT_EQ(during, 0);
  EXPECT_GT(selector.result().total_taken, 0);
  EXPECT_GT(accepted, 0);
}

TEST(SpeculationAllocations, BaselineTreesAllocateNothingOnceWarm) {
  const Experiment exp(LlamaSetup());
  const std::vector<std::vector<Token>> contexts = Contexts(16);
  const std::vector<int> chain(8, 1);  // vLLM-Spec(8)'s chain.
  const std::vector<int> branching = {3, 2, 1};
  BuildScratch scratch;
  TokenTree tree(kInvalidToken);
  // vLLM-Spec and StaticTree build every request's tree in turn into one.
  const auto iteration = [&](uint64_t stream_base) {
    for (size_t i = 0; i < contexts.size(); ++i) {
      BuildStaticTree(exp.draft(), stream_base + i, contexts[i], chain, scratch, tree);
      BuildStaticTree(exp.draft(), stream_base + i, contexts[i], branching, scratch, tree);
    }
  };
  iteration(0);

  const long before = Allocations();
  for (uint64_t stream_base = 100; stream_base < 1000; stream_base += 100) {
    iteration(stream_base);
  }
  const long during = Allocations() - before;
  EXPECT_EQ(during, 0);
  EXPECT_EQ(tree.size(), 1 + 3 + 6 + 6);
}

}  // namespace
}  // namespace adaserve
