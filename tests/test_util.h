// Shared fixtures for serving-layer tests: a small, fast experiment setup.
#ifndef ADASERVE_TESTS_TEST_UTIL_H_
#define ADASERVE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "src/adaserve.h"

namespace adaserve {

// A compact setup (Qwen-32B profile, low-entropy LM) that runs fast in unit
// tests while exercising the same code paths as the benches. Shared with the
// golden harness so the baselines track the unit-test path by construction.
inline Setup TestSetup() { return GoldenSetup(); }

// A small deterministic workload: `n` requests with the given category,
// arriving uniformly over [0, spread_s].
inline std::vector<Request> UniformWorkload(const Experiment& exp, int n, int category,
                                            double spread_s, int prompt_len = 64,
                                            int output_len = 24) {
  const std::vector<CategorySpec> cats = exp.Categories();
  std::vector<Request> reqs;
  reqs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Request req;
    req.id = i;
    req.category = category;
    req.tpot_slo = cats[static_cast<size_t>(category)].tpot_slo;
    req.arrival = spread_s * i / std::max(1, n);
    req.prompt_len = prompt_len;
    req.target_output_len = output_len;
    req.stream_seed = HashCombine(0xfeed, static_cast<uint64_t>(i));
    reqs.push_back(req);
  }
  return reqs;
}

// A mixed-category workload from the real-shaped trace, small enough for
// unit tests.
inline std::vector<Request> SmallMixedWorkload(const Experiment& exp, double duration = 8.0,
                                               double rps = 3.0) {
  return exp.RealTraceWorkload(duration, rps, WorkloadConfig{.mix = {0.4, 0.3, 0.3}});
}

// Collects every progressing tick's IterationRecord of a run, in order.
// Attach it as EngineConfig::trace_sink.
struct TickLog final : TickTraceSink {
  void OnArrival(const Request&) override {}
  void OnTick(const TickTraceEvent& event) override { ticks.push_back(event.record); }

  std::vector<IterationRecord> ticks;
};

// One run's result together with its tick log.
struct LoggedRun {
  EngineResult result;
  std::vector<IterationRecord> ticks;
};

// Experiment::Run with a TickLog attached to `engine`.
inline LoggedRun RunLogged(const Experiment& exp, Scheduler& scheduler, WorkloadSource workload,
                           EngineConfig engine = {}) {
  TickLog log;
  engine.trace_sink = &log;
  EngineResult result = exp.Run(scheduler, std::move(workload), engine);
  return {std::move(result), std::move(log.ticks)};
}

// True if the two doubles have the same bit pattern.
inline bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Node for node: token, parent, both probabilities bit for bit, and the
// target draw `target` made for `stream` attached to each node, its tokens
// and weight bits.
inline void ExpectSameTree(const TokenTree& got, const TokenTree& want, const SyntheticLm& target,
                           uint64_t stream) {
  ASSERT_EQ(got.size(), want.size());
  for (NodeId id = 0; id < want.size(); ++id) {
    SCOPED_TRACE(testing::Message() << "node " << id);
    EXPECT_EQ(got.node(id).token, want.node(id).token);
    EXPECT_EQ(got.node(id).parent, want.node(id).parent);
    EXPECT_TRUE(SameBits(got.node(id).cond_prob, want.node(id).cond_prob));
    EXPECT_TRUE(SameBits(got.node(id).path_prob, want.node(id).path_prob));
    const SupportDraw* got_draw = got.TargetDraw(id, target, stream);
    const SupportDraw* want_draw = want.TargetDraw(id, target, stream);
    ASSERT_EQ(got_draw == nullptr, want_draw == nullptr);
    if (want_draw == nullptr) {
      continue;
    }
    ASSERT_EQ(got_draw->tokens.size(), want_draw->tokens.size());
    ASSERT_EQ(got_draw->weights.size(), want_draw->weights.size());
    for (size_t i = 0; i < want_draw->tokens.size(); ++i) {
      EXPECT_EQ(got_draw->tokens[i], want_draw->tokens[i]);
    }
    for (size_t i = 0; i < want_draw->weights.size(); ++i) {
      EXPECT_TRUE(SameBits(got_draw->weights[i], want_draw->weights[i]));
    }
  }
}

}  // namespace adaserve

#endif  // ADASERVE_TESTS_TEST_UTIL_H_
