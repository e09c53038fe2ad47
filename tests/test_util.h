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
// target distribution `target` built for `stream` attached to each node.
inline void ExpectSameTree(const TokenTree& got, const TokenTree& want, const SyntheticLm& target,
                           uint64_t stream) {
  ASSERT_EQ(got.size(), want.size());
  for (NodeId id = 0; id < want.size(); ++id) {
    SCOPED_TRACE(testing::Message() << "node " << id);
    EXPECT_EQ(got.node(id).token, want.node(id).token);
    EXPECT_EQ(got.node(id).parent, want.node(id).parent);
    EXPECT_TRUE(SameBits(got.node(id).cond_prob, want.node(id).cond_prob));
    EXPECT_TRUE(SameBits(got.node(id).path_prob, want.node(id).path_prob));
    const SparseDist* got_dist = got.TargetDist(id, target, stream);
    const SparseDist* want_dist = want.TargetDist(id, target, stream);
    ASSERT_EQ(got_dist == nullptr, want_dist == nullptr);
    if (want_dist == nullptr) {
      continue;
    }
    ASSERT_EQ(got_dist->size(), want_dist->size());
    for (size_t i = 0; i < want_dist->size(); ++i) {
      EXPECT_EQ(got_dist->entry(i).token, want_dist->entry(i).token);
      EXPECT_TRUE(SameBits(got_dist->entry(i).prob, want_dist->entry(i).prob));
    }
  }
}

}  // namespace adaserve

#endif  // ADASERVE_TESTS_TEST_UTIL_H_
