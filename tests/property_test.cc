// Cross-cutting property suite: invariants that must hold for every
// scheduler, workload mix, and seed.
#include <gtest/gtest.h>

#include <tuple>

#include "tests/test_util.h"

namespace adaserve {
namespace {

// (system, trace seed, tick-native continuous mode?)
using PropertyParams = std::tuple<SystemKind, uint64_t, bool>;

class ServingProperties : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(ServingProperties, InvariantsHoldEndToEnd) {
  const auto [kind, seed, continuous] = GetParam();
  Experiment exp(TestSetup());
  TraceConfig trace;
  trace.duration = 6.0;
  trace.mean_rps = 3.0;
  trace.seed = seed;
  WorkloadConfig mix;
  mix.mix = {0.5, 0.3, 0.2};
  mix.seed = seed + 1;
  std::vector<Request> workload =
      BuildWorkload(exp.Categories(), RealShapedArrivals(trace), mix);
  if (workload.empty()) {
    GTEST_SKIP() << "empty trace realisation";
  }

  auto scheduler = MakeScheduler(kind);
  KvCache kv(exp.target_latency().KvCacheBytes(), exp.target_latency().model().KvBytesPerToken());
  RequestPool pool(&kv);
  Rng rng(seed + 2);
  ServingContext ctx;
  ctx.target = &exp.target();
  ctx.draft = &exp.draft();
  ctx.target_latency = &exp.target_latency();
  ctx.draft_latency = &exp.draft_latency();
  ctx.mode = DecodeMode::kStochastic;
  ctx.verify_budget = DeriveTokenBudget(exp.target_latency());
  ctx.draft_budget = DeriveDraftBudget(exp.target_latency(), exp.draft_latency());
  ctx.rng = &rng;
  ctx.tick.max_active = 256;
  ctx.tick.continuous = continuous;
  ctx.tick.max_evictions = continuous ? 4 : 0;
  // Mirror the engine's policy resolution: the scheduler's own admission
  // priority in tick-native mode (SLO-aware for AdaServe), FIFO at the
  // boundary — so the invariants also cover ranked admission and the
  // SLO-aware eviction path.
  ctx.tick.admission_priority =
      continuous ? scheduler->AdmissionPriority() : PriorityPolicy::kFifo;

  SimTime now = 0.0;
  size_t next = 0;
  // Arrival injection shared between the driver loop and the scheduler's
  // mid-tick admission phase (continuous mode).
  auto pull_arrivals = [&](SimTime t) {
    int pulled = 0;
    while (next < workload.size() && workload[next].arrival <= t) {
      pool.AddArrival(workload[next]);
      ++next;
      ++pulled;
    }
    return pulled;
  };
  ctx.pull_arrivals = pull_arrivals;
  std::vector<IterationRecord> iterations;
  while (pool.finished_count() < workload.size()) {
    pull_arrivals(now);
    const TickResult tick = scheduler->Tick(now, pool, ctx);
    // KV accounting never exceeds capacity, mid-tick admissions included.
    ASSERT_LE(kv.used_tokens(), kv.capacity_tokens());
    if (!tick.MadeProgress()) {
      ASSERT_TRUE(pool.active().empty());
      ASSERT_TRUE(pool.queued().empty());
      ASSERT_LT(next, workload.size());
      now = workload[next].arrival;
      continue;
    }
    now += tick.record.duration;
    iterations.push_back(tick.record);
    ASSERT_LT(iterations.size(), 200000u) << "runaway simulation";
  }

  // Per-request invariants.
  for (const Request& req : pool.requests()) {
    ASSERT_EQ(req.state, RequestState::kFinished);
    // Exact output length.
    EXPECT_EQ(req.output_len(), req.target_output_len);
    // Timestamps: arrival <= first_token <= finish; token times monotone.
    EXPECT_GE(req.first_token_time, req.arrival);
    EXPECT_GE(req.finish_time, req.first_token_time);
    for (size_t i = 1; i < req.token_times.size(); ++i) {
      EXPECT_GE(req.token_times[i], req.token_times[i - 1]);
    }
    EXPECT_EQ(req.token_times.size(), req.output.size());
    // Prefill fully accounted.
    EXPECT_EQ(req.prefill_progress, req.prompt_len);
    // Speculation bookkeeping sane.
    EXPECT_GE(req.verified_tokens, req.accepted_tokens);
    EXPECT_GE(req.accepted_tokens, 0);
    // TPOT well-defined and positive.
    EXPECT_GT(req.AvgTpot(), 0.0);
    // All KV released.
    EXPECT_EQ(kv.HeldBy(req.id), 0);
  }
  EXPECT_EQ(kv.used_tokens(), 0);

  // Aggregate invariants.
  const Metrics m = ComputeMetrics(pool.requests(), iterations, now);
  EXPECT_LE(m.GoodputTps(), m.ThroughputTps() + 1e-9);
  EXPECT_LE(m.attained, m.finished);
  EXPECT_GE(m.mean_accepted, 0.0);
  long committed = 0;
  for (const IterationRecord& rec : iterations) {
    committed += rec.committed_tokens;
  }
  EXPECT_EQ(committed, m.output_tokens());
  // Every request is admitted once, plus once more per eviction or pause
  // it suffered.
  EXPECT_EQ(m.admissions, static_cast<long>(workload.size()) + m.evictions + m.pauses);
}

INSTANTIATE_TEST_SUITE_P(
    SystemsAndSeeds, ServingProperties,
    ::testing::Combine(::testing::Values(SystemKind::kAdaServe, SystemKind::kVllm,
                                         SystemKind::kSarathi, SystemKind::kVllmSpec6,
                                         SystemKind::kVllmPriority, SystemKind::kFastServe,
                                         SystemKind::kVtc, SystemKind::kEdf),
                       ::testing::Values(1u, 2u, 3u), ::testing::Bool()),
    [](const ::testing::TestParamInfo<PropertyParams>& info) {
      std::string name(SystemName(std::get<0>(info.param)));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_continuous" : "_boundary");
    });

// --- stress-scenario properties ----------------------------------------------

class StressScenarioProperties : public ::testing::TestWithParam<StressScenario> {};

// Every scenario stream is a well-formed workload: nonempty, densely
// id'd in emission order, arrival-sorted, and re-keyed with the
// generator's stream_seed convention, with per-request fields the engine
// can serve directly.
TEST_P(StressScenarioProperties, StreamEmitsOrderedDenseWellFormedRequests) {
  const Experiment exp(TestSetup());
  auto stream = MakeStressStream(exp.Categories(), GetParam(), /*duration=*/20.0,
                                 /*trace_seed=*/42);
  ASSERT_NE(stream, nullptr);
  const std::vector<Request> reqs = Materialize(*stream);
  ASSERT_FALSE(reqs.empty());
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Request& req = reqs[i];
    EXPECT_EQ(req.id, static_cast<RequestId>(i));
    if (i > 0) {
      EXPECT_GE(req.arrival, reqs[i - 1].arrival);
    }
    EXPECT_GE(req.arrival, 0.0);
    EXPECT_GE(req.category, 0);
    EXPECT_LT(req.category, kNumCategories);
    EXPECT_GE(req.prompt_len, 1);
    EXPECT_GE(req.target_output_len, 2);
    EXPECT_GT(req.tpot_slo, 0.0);
    EXPECT_EQ(req.stream_seed,
              HashCombine(Mix64(0xadaceedeULL), static_cast<uint64_t>(req.id)));
  }
}

// Conservation under overload: every request the engine pulls from a
// stress stream is eventually served — evictions and pauses requeue, they
// never drop — so finished == arrivals when the run drains.
TEST_P(StressScenarioProperties, EngineConservesEveryArrival) {
  const Experiment exp(TestSetup());
  // Count arrivals with a twin stream; the engine consumes its own.
  const size_t total =
      Materialize(*MakeStressStream(exp.Categories(), GetParam(), 20.0, 42)).size();
  auto stream = MakeStressStream(exp.Categories(), GetParam(), 20.0, 42);
  auto scheduler = MakeScheduler(SystemKind::kAdaServe);
  const EngineResult result = exp.Run(*scheduler, *stream);
  EXPECT_EQ(static_cast<size_t>(result.metrics.finished), total);
  EXPECT_EQ(result.requests.size(), total);
  for (const Request& req : result.requests) {
    EXPECT_EQ(req.state, RequestState::kFinished);
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, StressScenarioProperties,
                         ::testing::ValuesIn(AllStressScenarios()),
                         [](const ::testing::TestParamInfo<StressScenario>& info) {
                           return StressScenarioSlug(info.param);
                         });

// A bigger flash crowd can only prolong the post-overload SLO backlog:
// recovery time to SLO is nondecreasing in the overload magnitude for a
// fixed seed and window.
TEST(FlashCrowdProperties, RecoveryTimeMonotoneInOverloadMagnitude) {
  const Experiment exp(TestSetup());
  const double kMagnitudes[] = {4.0, 12.0, 30.0};
  double prev_recovery = -1.0;
  for (const double magnitude : kMagnitudes) {
    FlashCrowdSpec spec = DefaultFlashCrowd(/*duration=*/20.0, /*trace_seed=*/42);
    spec.magnitude = magnitude;
    auto stream = MakeFlashCrowdStream(exp.Categories(), spec);
    auto scheduler = MakeScheduler(SystemKind::kAdaServe);
    const EngineResult result = exp.Run(*scheduler, *stream);
    const double recovery = RecoveryTimeToSlo(result.requests, spec, result.end_time);
    EXPECT_GE(recovery, 0.0);
    EXPECT_GE(recovery, prev_recovery)
        << "magnitude " << magnitude << " recovered faster than a smaller crowd";
    prev_recovery = recovery;
  }
  // The largest crowd actually overwhelms the system: a zero recovery
  // across the board would make the monotonicity check vacuous.
  EXPECT_GT(prev_recovery, 0.0);
}

}  // namespace
}  // namespace adaserve
