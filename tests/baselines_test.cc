#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace adaserve {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() : exp_(TestSetup()) {}
  Experiment exp_;
};

TEST_F(BaselinesTest, EveryBaselineDrainsAMixedWorkload) {
  const std::vector<Request> workload = SmallMixedWorkload(exp_);
  for (SystemKind kind :
       {SystemKind::kVllm, SystemKind::kSarathi, SystemKind::kVllmSpec4,
        SystemKind::kVllmPriority, SystemKind::kFastServe, SystemKind::kVtc}) {
    auto scheduler = MakeScheduler(kind);
    const EngineResult result = exp_.Run(*scheduler, workload);
    EXPECT_EQ(result.metrics.finished, static_cast<int>(workload.size())) << SystemName(kind);
  }
}

TEST_F(BaselinesTest, VllmUniformPerTokenLatencyWithinBatch) {
  // Continuous batching gives every batched request the same iteration
  // cadence: simultaneous same-length requests finish together.
  VllmScheduler scheduler;
  const std::vector<Request> workload = UniformWorkload(exp_, 4, kCatChat, /*spread_s=*/0.0);
  Engine engine(&exp_.target(), &exp_.draft(), &exp_.target_latency(), &exp_.draft_latency());
  const EngineResult result = exp_.Run(scheduler, workload);
  EXPECT_EQ(result.metrics.finished, 4);
  const Samples& tpot = result.metrics.per_category[kCatChat].tpot_ms;
  EXPECT_NEAR(tpot.Min(), tpot.Max(), 1e-6);
}

TEST_F(BaselinesTest, VllmSpecCommitsMoreTokensPerIteration) {
  const std::vector<Request> workload = UniformWorkload(exp_, 4, kCatChat, 0.0);
  VllmScheduler cb;
  auto spec = MakeScheduler(SystemKind::kVllmSpec6);
  const LoggedRun cb_run = RunLogged(exp_, cb, workload);
  const LoggedRun spec_run = RunLogged(exp_, *spec, workload);
  // Same tokens served, fewer iterations for the speculative system.
  EXPECT_LT(spec_run.ticks.size(), cb_run.ticks.size());
  EXPECT_GT(spec_run.result.metrics.mean_accepted, 0.0);
  EXPECT_EQ(cb_run.result.metrics.mean_accepted, 0.0);
}

TEST_F(BaselinesTest, VllmSpecAcceptanceBoundedBySpecLen) {
  auto spec = MakeScheduler(SystemKind::kVllmSpec4);
  const std::vector<Request> workload = UniformWorkload(exp_, 4, kCatChat, 0.0);
  const EngineResult result = exp_.Run(*spec, workload);
  EXPECT_LE(result.metrics.mean_accepted, 4.0);
}

TEST_F(BaselinesTest, PrioritySchedulerFavoursUrgentCategory) {
  // Simultaneous urgent (Cat1) and relaxed (Cat3) requests: under priority
  // scheduling the urgent class must see strictly lower mean TPOT.
  PriorityScheduler scheduler;
  std::vector<Request> workload = UniformWorkload(exp_, 4, kCatCoding, 0.0);
  std::vector<Request> relaxed = UniformWorkload(exp_, 4, kCatSummarization, 0.0);
  for (Request& r : relaxed) {
    r.id += 4;
    r.stream_seed += 1000;
    workload.push_back(r);
  }
  const EngineResult result = exp_.Run(scheduler, workload);
  EXPECT_LT(result.metrics.per_category[kCatCoding].tpot_ms.Mean(),
            result.metrics.per_category[kCatSummarization].tpot_ms.Mean());
}

TEST_F(BaselinesTest, VtcCountsServiceFairly) {
  // With a binding batch cap and two categories, VTC must alternate service
  // so neither category's mean TPOT is wildly worse than the other's.
  VtcConfig config;
  config.max_batch = 2;
  VtcScheduler scheduler(config);
  std::vector<Request> workload = UniformWorkload(exp_, 3, kCatChat, 0.0);
  std::vector<Request> other = UniformWorkload(exp_, 3, kCatSummarization, 0.0);
  for (size_t i = 0; i < other.size(); ++i) {
    other[i].id += 3;
    other[i].stream_seed += 500;
    workload.push_back(other[i]);
  }
  const EngineResult result = exp_.Run(scheduler, workload);
  const double chat = result.metrics.per_category[kCatChat].tpot_ms.Mean();
  const double summ = result.metrics.per_category[kCatSummarization].tpot_ms.Mean();
  EXPECT_LT(std::max(chat, summ) / std::min(chat, summ), 2.0);
}

TEST_F(BaselinesTest, FastServePrefersShortJobs) {
  // A request shorter than the top-level quantum never demotes, so it
  // completes entirely at top priority while long-runners sink; its mean
  // TPOT must beat theirs.
  FastServeConfig config;
  config.base_quantum = 8;
  config.max_batch = 2;
  FastServeScheduler scheduler(config);
  std::vector<Request> workload = UniformWorkload(exp_, 1, kCatChat, 0.0,
                                                  /*prompt_len=*/32, /*output_len=*/6);
  std::vector<Request> long_reqs = UniformWorkload(exp_, 3, kCatSummarization, 0.0,
                                                   /*prompt_len=*/32, /*output_len=*/64);
  for (size_t i = 0; i < long_reqs.size(); ++i) {
    long_reqs[i].id += 1;
    long_reqs[i].stream_seed += 99;
    workload.push_back(long_reqs[i]);
  }
  const EngineResult result = exp_.Run(scheduler, workload);
  EXPECT_LT(result.metrics.per_category[kCatChat].tpot_ms.Mean(),
            result.metrics.per_category[kCatSummarization].tpot_ms.Mean());
}

TEST_F(BaselinesTest, SarathiBoundsIterationTokens) {
  SarathiConfig config;
  config.chunk_budget = 64;
  SarathiScheduler scheduler(config);
  const std::vector<Request> workload =
      UniformWorkload(exp_, 3, kCatSummarization, 0.05, /*prompt_len=*/500);
  // Per-iteration chunk budgeting is a drain-step property: tick-native
  // records merge the decode phase with the shared (kBurst-floored)
  // prefill phase, so the bound only holds in boundary mode.
  const LoggedRun run = RunLogged(exp_, scheduler, workload, BoundaryTickConfig());
  for (const IterationRecord& rec : run.ticks) {
    EXPECT_LE(rec.prefill_tokens + rec.decode_requests, 64 + 1);
  }
  EXPECT_EQ(run.result.metrics.finished, 3);
}

TEST_F(BaselinesTest, SarathiChunksLongPromptsAcrossIterations) {
  SarathiConfig config;
  config.chunk_budget = 64;
  SarathiScheduler scheduler(config);
  const std::vector<Request> workload =
      UniformWorkload(exp_, 1, kCatSummarization, 0.0, /*prompt_len=*/300, /*output_len=*/4);
  // Boundary mode: the tick-native prefill phase would swallow the whole
  // prompt in one kBurst-capped pass instead of chunk_budget slices.
  const LoggedRun run = RunLogged(exp_, scheduler, workload, BoundaryTickConfig());
  int prefill_iterations = 0;
  for (const IterationRecord& rec : run.ticks) {
    if (rec.prefill_tokens > 0) {
      ++prefill_iterations;
    }
  }
  EXPECT_GE(prefill_iterations, 300 / 64);
}

TEST_F(BaselinesTest, VllmPrefillPriorityStallsDecodes) {
  // With a long prompt arriving mid-decode, vLLM runs a prefill-only
  // iteration; decode iterations never mix prefill tokens.
  VllmScheduler scheduler;
  std::vector<Request> workload = UniformWorkload(exp_, 2, kCatChat, 0.0);
  Request late = UniformWorkload(exp_, 1, kCatSummarization, 0.0, /*prompt_len=*/2000)[0];
  late.id = 2;
  late.arrival = 0.2;
  late.stream_seed += 77;
  workload.push_back(late);
  // Prefill/decode exclusivity is the drain-style iteration shape; a
  // tick-native tick co-schedules both phases in one record by design.
  const LoggedRun run = RunLogged(exp_, scheduler, workload, BoundaryTickConfig());
  for (const IterationRecord& rec : run.ticks) {
    // An iteration is either prefill or decode, never both (vLLM v0.8 default).
    EXPECT_TRUE(rec.prefill_tokens == 0 || rec.decode_requests == 0);
  }
}

TEST_F(BaselinesTest, SpecLenNamesDistinct) {
  EXPECT_EQ(MakeScheduler(SystemKind::kVllmSpec4)->name(), "vLLM-Spec(4)");
  EXPECT_EQ(MakeScheduler(SystemKind::kVllmSpec8)->name(), "vLLM-Spec(8)");
}

// Every SystemKind round-trips through its name (replay resolves recorded
// systems with SystemKindFromName's hand-written list) and builds a
// scheduler reporting that name. The walk stops where SystemName falls off
// the enum, so it covers enumerators the list may have missed.
TEST_F(BaselinesTest, EverySystemKindRoundTripsThroughItsName) {
  int kinds = 0;
  for (int i = 0; SystemName(static_cast<SystemKind>(i)) != "?"; ++i) {
    const auto kind = static_cast<SystemKind>(i);
    EXPECT_EQ(SystemKindFromName(SystemName(kind)), kind) << SystemName(kind);
    EXPECT_EQ(MakeScheduler(kind)->name(), SystemName(kind));
    ++kinds;
  }
  EXPECT_GE(kinds, static_cast<int>(SystemKind::kEdf) + 1);
}

TEST_F(BaselinesTest, ComparisonSetsWellFormed) {
  EXPECT_EQ(MainComparisonSet().size(), 7u);
  EXPECT_EQ(MotivationSet().size(), 5u);
  for (SystemKind kind : MainComparisonSet()) {
    EXPECT_NE(MakeScheduler(kind), nullptr);
    EXPECT_FALSE(SystemName(kind).empty());
  }
}

}  // namespace
}  // namespace adaserve
