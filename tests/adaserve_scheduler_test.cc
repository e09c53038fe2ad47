#include "src/core/adaserve_scheduler.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace adaserve {
namespace {

class AdaServeSchedulerTest : public ::testing::Test {
 protected:
  AdaServeSchedulerTest() : exp_(TestSetup()) {}
  Experiment exp_;
};

TEST_F(AdaServeSchedulerTest, DrainsMixedWorkload) {
  AdaServeScheduler scheduler;
  const std::vector<Request> workload = SmallMixedWorkload(exp_);
  const EngineResult result = exp_.Run(scheduler, workload);
  EXPECT_EQ(result.metrics.finished, static_cast<int>(workload.size()));
  EXPECT_GT(result.metrics.mean_accepted, 0.0);
}

TEST_F(AdaServeSchedulerTest, VerifiedTokensNeverExceedBudget) {
  AdaServeScheduler scheduler;
  const std::vector<Request> workload = SmallMixedWorkload(exp_, /*duration=*/10.0, /*rps=*/4.0);
  const int budget = 64;
  // Boundary mode: the drain step co-batches prefill chunks inside the
  // same budget, so the bound covers roots + speculation + prefill.
  TickLog log;
  EngineConfig engine = BoundaryTickConfig();
  engine.trace_sink = &log;
  exp_.Run(scheduler, workload, engine, budget);
  for (const IterationRecord& rec : log.ticks) {
    // Budget covers roots + speculated tokens + co-batched prefill chunks;
    // dedicated prefill passes (verified_tokens == 0) may exceed it.
    if (rec.verified_tokens > 0) {
      EXPECT_LE(rec.decode_requests + rec.verified_tokens + rec.prefill_tokens,
                std::max(budget, rec.decode_requests + rec.prefill_tokens))
          << "speculation overflowed the budget";
    }
  }
}

TEST_F(AdaServeSchedulerTest, TickNativeDecodePhaseRespectsBudget) {
  // In the tick-native default the prefill phase is budgeted separately
  // (leftover budget with a kBurst floor), but the decode phase's
  // speculation — roots plus verified tokens — must still fit B.
  AdaServeScheduler scheduler;
  const std::vector<Request> workload = SmallMixedWorkload(exp_, /*duration=*/10.0, /*rps=*/4.0);
  const int budget = 64;
  TickLog log;
  EngineConfig engine;
  engine.trace_sink = &log;
  exp_.Run(scheduler, workload, engine, budget);
  for (const IterationRecord& rec : log.ticks) {
    if (rec.verified_tokens > 0) {
      EXPECT_LE(rec.decode_requests + rec.verified_tokens, budget)
          << "tick-native speculation overflowed the budget";
    }
  }
}

TEST_F(AdaServeSchedulerTest, BreakdownFieldsPopulated) {
  AdaServeScheduler scheduler;
  const std::vector<Request> workload = UniformWorkload(exp_, 4, kCatChat, 0.0);
  const LoggedRun run = RunLogged(exp_, scheduler, workload);
  bool saw_decode_iteration = false;
  for (const IterationRecord& rec : run.ticks) {
    if (rec.verified_tokens > 0) {
      saw_decode_iteration = true;
      EXPECT_GT(rec.spec_time, 0.0);
      EXPECT_GT(rec.select_time, 0.0);
      EXPECT_GT(rec.verify_time, 0.0);
      EXPECT_NEAR(rec.duration, rec.spec_time + rec.select_time + rec.verify_time, 1e-9);
    }
  }
  EXPECT_TRUE(saw_decode_iteration);
}

TEST_F(AdaServeSchedulerTest, CoBatchedPrefillTakesItsTokenShareOfTheTargetPass) {
  // Boundary mode: the drain step verifies trees and prefills chunks in
  // one target pass, whose time splits between verify and prefill by
  // token count.
  AdaServeScheduler scheduler;
  const std::vector<Request> workload = SmallMixedWorkload(exp_, /*duration=*/10.0, /*rps=*/4.0);
  TickLog log;
  EngineConfig engine = BoundaryTickConfig();
  engine.trace_sink = &log;
  exp_.Run(scheduler, workload, engine);
  int co_batched = 0;
  for (const IterationRecord& rec : log.ticks) {
    if (rec.verified_tokens == 0 || rec.prefill_tokens == 0) {
      continue;
    }
    ++co_batched;
    EXPECT_GT(rec.prefill_time, 0.0);
    EXPECT_GT(rec.verify_time, 0.0);
    EXPECT_NEAR(rec.duration,
                rec.spec_time + rec.select_time + rec.verify_time + rec.prefill_time, 1e-12);
    const double target_tokens =
        rec.decode_requests + rec.verified_tokens + rec.prefill_tokens;
    EXPECT_NEAR(rec.prefill_time / (rec.verify_time + rec.prefill_time),
                rec.prefill_tokens / target_tokens, 1e-9);
  }
  EXPECT_GT(co_batched, 0) << "no drain step co-batched a prefill chunk";
}

TEST_F(AdaServeSchedulerTest, SelectionOverheadIsTinyFraction) {
  // Fig. 15: CPU scheduling is a fraction of a percent of iteration time.
  AdaServeScheduler scheduler;
  const std::vector<Request> workload = SmallMixedWorkload(exp_);
  const EngineResult result = exp_.Run(scheduler, workload);
  EXPECT_LT(result.metrics.select_time, 0.02 * result.metrics.total_time);
}

TEST_F(AdaServeSchedulerTest, AdaptiveBeamShrinksWithBatchSize) {
  // Few requests => deep/wide speculation; many => shallow/narrow.
  AdaServeScheduler few;
  AdaServeScheduler many;
  const std::vector<Request> small = UniformWorkload(exp_, 2, kCatChat, 0.0);
  const EngineResult r_small = exp_.Run(few, small);
  const std::vector<Request> large = UniformWorkload(exp_, 48, kCatChat, 0.0);
  const EngineResult r_large = exp_.Run(many, large);
  EXPECT_GE(few.last_beam().depth, many.last_beam().depth);
  // More speculation per request when unloaded => more accepted tokens.
  EXPECT_GT(r_small.metrics.mean_accepted, r_large.metrics.mean_accepted);
}

TEST_F(AdaServeSchedulerTest, FixedBeamHonoursConfig) {
  AdaServeConfig config;
  config.adaptive_control = false;
  config.fixed_beam = {.depth = 2, .width = 3};
  AdaServeScheduler scheduler(config);
  const std::vector<Request> workload = UniformWorkload(exp_, 4, kCatChat, 0.0);
  exp_.Run(scheduler, workload);
  EXPECT_EQ(scheduler.last_beam().depth, 2);
  EXPECT_EQ(scheduler.last_beam().width, 3);
}

TEST_F(AdaServeSchedulerTest, AcceptedBoundedByDepth) {
  AdaServeConfig config;
  config.adaptive_control = false;
  config.fixed_beam = {.depth = 3, .width = 2};
  AdaServeScheduler scheduler(config);
  const std::vector<Request> workload = UniformWorkload(exp_, 4, kCatChat, 0.0);
  const EngineResult result = exp_.Run(scheduler, workload);
  EXPECT_LE(result.metrics.mean_accepted, 3.0);
}

TEST_F(AdaServeSchedulerTest, SloPhaseImprovesTightSloCategory) {
  // Under pressure, the full pipeline should hold Cat-1 attainment at or
  // above the throughput-only variant's.
  const std::vector<Request> workload =
      exp_.RealTraceWorkload(/*duration=*/15.0, /*rps=*/4.5, WorkloadConfig{.mix = {0.7, 0.15, 0.15}});
  AdaServeConfig with_slo;
  with_slo.slo_phase_enabled = true;
  AdaServeConfig without_slo;
  without_slo.slo_phase_enabled = false;
  AdaServeScheduler a(with_slo);
  AdaServeScheduler b(without_slo);
  const EngineResult ra = exp_.Run(a, workload);
  const EngineResult rb = exp_.Run(b, workload);
  EXPECT_GE(ra.metrics.per_category[kCatCoding].AttainmentPct() + 1e-9,
            rb.metrics.per_category[kCatCoding].AttainmentPct());
}

TEST_F(AdaServeSchedulerTest, PrefillOnlyWorkloadCompletes) {
  // Requests whose decode is trivially short: exercises the prefill path.
  const std::vector<Request> workload =
      UniformWorkload(exp_, 6, kCatSummarization, 0.1, /*prompt_len=*/700, /*output_len=*/2);
  AdaServeScheduler scheduler;
  const EngineResult result = exp_.Run(scheduler, workload);
  EXPECT_EQ(result.metrics.finished, 6);
  EXPECT_GT(result.metrics.prefill_time, 0.0);
}

TEST_F(AdaServeSchedulerTest, SpeculationBookkeepingConsistent) {
  AdaServeScheduler scheduler;
  const std::vector<Request> workload = UniformWorkload(exp_, 4, kCatChat, 0.0);
  const LoggedRun run = RunLogged(exp_, scheduler, workload);
  long committed = 0;
  for (const IterationRecord& rec : run.ticks) {
    EXPECT_GE(rec.verified_tokens, 0);
    EXPECT_GE(rec.committed_tokens, 0);
    committed += rec.committed_tokens;
  }
  EXPECT_EQ(committed, run.result.metrics.output_tokens());
}

TEST_F(AdaServeSchedulerTest, NmaxOneStillDrains) {
  AdaServeConfig config;
  config.selection.n_max = 1;
  AdaServeScheduler scheduler(config);
  const std::vector<Request> workload = SmallMixedWorkload(exp_);
  const EngineResult result = exp_.Run(scheduler, workload);
  EXPECT_EQ(result.metrics.finished, static_cast<int>(workload.size()));
}

TEST_F(AdaServeSchedulerTest, ZeroFidelityDraftStillLossless) {
  // A useless draft degrades speed, never correctness or completion.
  auto setup = TestSetup();
  setup.draft_config.fidelity = 0.0;
  Experiment exp(setup);
  AdaServeScheduler scheduler;
  const std::vector<Request> workload = UniformWorkload(exp, 4, kCatChat, 0.0);
  const EngineResult result = exp.Run(scheduler, workload);
  EXPECT_EQ(result.metrics.finished, 4);
  EXPECT_LT(result.metrics.mean_accepted, 0.5);
}

}  // namespace
}  // namespace adaserve
