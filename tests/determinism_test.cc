// Determinism guard for the golden harness: the same seed must reproduce
// bit-identical EngineResult metrics, or golden baselines would be flaky.
#include <gtest/gtest.h>

#include "src/harness/golden.h"
#include "tests/test_util.h"

namespace adaserve {
namespace {

void ExpectBitIdentical(const EngineResult& a, const EngineResult& b) {
  // Aggregate metrics, compared exactly — no tolerance.
  EXPECT_EQ(a.metrics.finished, b.metrics.finished);
  EXPECT_EQ(a.metrics.attained, b.metrics.attained);
  EXPECT_EQ(a.metrics.output_tokens(), b.metrics.output_tokens());
  EXPECT_EQ(a.metrics.attained_tokens(), b.metrics.attained_tokens());
  EXPECT_EQ(a.metrics.makespan, b.metrics.makespan);
  EXPECT_EQ(a.metrics.mean_accepted, b.metrics.mean_accepted);
  EXPECT_EQ(a.metrics.ThroughputTps(), b.metrics.ThroughputTps());
  EXPECT_EQ(a.metrics.GoodputTps(), b.metrics.GoodputTps());
  EXPECT_EQ(a.metrics.spec_time, b.metrics.spec_time);
  EXPECT_EQ(a.metrics.verify_time, b.metrics.verify_time);
  EXPECT_EQ(a.metrics.prefill_time, b.metrics.prefill_time);
  EXPECT_EQ(a.metrics.total_time, b.metrics.total_time);
  for (size_t c = 0; c < static_cast<size_t>(kNumCategories); ++c) {
    const CategoryMetrics& ca = a.metrics.per_category[c];
    const CategoryMetrics& cb = b.metrics.per_category[c];
    EXPECT_EQ(ca.finished, cb.finished) << "cat " << c;
    EXPECT_EQ(ca.attained, cb.attained) << "cat " << c;
    EXPECT_EQ(ca.output_tokens, cb.output_tokens) << "cat " << c;
    EXPECT_EQ(ca.tpot_ms.values(), cb.tpot_ms.values()) << "cat " << c;
    EXPECT_EQ(ca.ttft_ms.values(), cb.ttft_ms.values()) << "cat " << c;
  }

  // The engine loop and every per-request record must replay identically,
  // not just the end-of-run summary.
  ASSERT_EQ(a.total_iterations, b.total_iterations);
  EXPECT_EQ(a.end_time, b.end_time);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (size_t i = 0; i < a.requests.size(); ++i) {
    const Request& ra = a.requests[i];
    const Request& rb = b.requests[i];
    EXPECT_EQ(ra.id, rb.id);
    EXPECT_EQ(ra.output, rb.output) << "request " << ra.id;
    EXPECT_EQ(ra.token_times, rb.token_times) << "request " << ra.id;
    EXPECT_EQ(ra.finish_time, rb.finish_time) << "request " << ra.id;
    EXPECT_EQ(ra.verifications, rb.verifications) << "request " << ra.id;
    EXPECT_EQ(ra.accepted_tokens, rb.accepted_tokens) << "request " << ra.id;
  }
}

TEST(Determinism, AdaServeSameSeedBitIdentical) {
  Experiment exp(TestSetup());
  const EngineResult first = RunGoldenSystem(exp, SystemKind::kAdaServe);
  const EngineResult second = RunGoldenSystem(exp, SystemKind::kAdaServe);
  ASSERT_GT(first.metrics.finished, 0);
  ExpectBitIdentical(first, second);
}

TEST(Determinism, AdaServeSameSeedAcrossExperimentInstances) {
  // A fresh Experiment (fresh synthetic LMs, latency models) must not leak
  // hidden state into the run.
  Experiment exp_a(TestSetup());
  Experiment exp_b(TestSetup());
  const EngineResult first = RunGoldenSystem(exp_a, SystemKind::kAdaServe);
  const EngineResult second = RunGoldenSystem(exp_b, SystemKind::kAdaServe);
  ExpectBitIdentical(first, second);
}

TEST(Determinism, DifferentSamplingSeedDiverges) {
  // Sanity check that the seed actually reaches the sampling path: a
  // different seed should change at least some sampled token stream.
  Experiment exp(TestSetup());
  GoldenConfig other;
  other.sampling_seed = 99991;
  const EngineResult first = RunGoldenSystem(exp, SystemKind::kAdaServe);
  const EngineResult second = RunGoldenSystem(exp, SystemKind::kAdaServe, other);
  ASSERT_EQ(first.requests.size(), second.requests.size());
  bool any_diff = false;
  for (size_t i = 0; i < first.requests.size() && !any_diff; ++i) {
    any_diff = first.requests[i].output != second.requests[i].output ||
               first.requests[i].token_times != second.requests[i].token_times;
  }
  EXPECT_TRUE(any_diff) << "sampling_seed had no effect on the run";
}

}  // namespace
}  // namespace adaserve
