// Tick-protocol equivalence proof.
//
// Pins the tick-based engine against the reference drain loop (the
// pre-tick engine, preserved as Experiment::RunLegacyDrainLoop): under
// BoundaryTickConfig(), boundary-mode ticks must reproduce the legacy
// admit-then-step sequence exactly, so end-of-run metrics are
// byte-identical for every system in MainComparisonSet(). Tick-native is
// the serving default now, so boundary mode is opt-in — this suite is
// what keeps the opt-out path honest. A second suite sanity-checks the
// tick-native default, which is allowed to (and does) schedule
// differently.
#include <gtest/gtest.h>

#include <cctype>

#include "tests/test_util.h"

namespace adaserve {
namespace {

class TickEquivalence : public ::testing::TestWithParam<SystemKind> {};

// Boundary mode (BoundaryTickConfig): tick-mode metrics are
// byte-identical to the legacy drain loop on the canonical golden
// workload.
TEST_P(TickEquivalence, BoundaryTicksMatchLegacyDrainLoopExactly) {
  const SystemKind kind = GetParam();
  Experiment exp(GoldenSetup());
  const GoldenConfig config;
  const std::vector<Request> workload = GoldenWorkload(exp, config);
  ASSERT_FALSE(workload.empty());

  EngineConfig engine = BoundaryTickConfig();
  engine.sampling_seed = config.sampling_seed;

  auto legacy_scheduler = MakeScheduler(kind);
  const EngineResult legacy = exp.RunLegacyDrainLoop(*legacy_scheduler, workload, engine);

  auto tick_scheduler = MakeScheduler(kind);
  const EngineResult tick = exp.Run(*tick_scheduler, workload, engine);

  // Byte-stable canonical text — the same representation the golden
  // baselines pin — must match exactly, not approximately.
  EXPECT_EQ(GoldenMetricsText(kind, legacy.metrics), GoldenMetricsText(kind, tick.metrics));
  EXPECT_EQ(legacy.total_iterations, tick.total_iterations);
  EXPECT_EQ(legacy.end_time, tick.end_time);
  EXPECT_EQ(legacy.requests.size(), tick.requests.size());
  // Boundary mode never evicts.
  EXPECT_EQ(tick.metrics.evictions, 0);
  // Every finished request was admitted through the tick protocol.
  EXPECT_EQ(tick.metrics.admissions, static_cast<long>(workload.size()));
}

// Tick-native mode — the default EngineConfig{} — runs a different
// (better-TTFT) schedule, but the same work must complete with sane
// accounting.
TEST_P(TickEquivalence, ContinuousModeServesEverything) {
  const SystemKind kind = GetParam();
  Experiment exp(GoldenSetup());
  const GoldenConfig config;
  const std::vector<Request> workload = GoldenWorkload(exp, config);
  ASSERT_FALSE(workload.empty());

  // The default config IS the tick-native mode: continuous ticks with a
  // bounded evict-for-admission budget (literals, so a silent default
  // regression cannot hide).
  const EngineConfig defaults;
  EXPECT_TRUE(defaults.tick.continuous);
  EXPECT_EQ(defaults.tick.max_evictions, 4);
  EXPECT_FALSE(defaults.tick.admission_priority.has_value());
  EngineConfig engine;
  engine.sampling_seed = config.sampling_seed;

  auto scheduler = MakeScheduler(kind);
  const EngineResult result = exp.Run(*scheduler, workload, engine);

  EXPECT_EQ(result.metrics.finished, static_cast<int>(workload.size()));
  EXPECT_EQ(result.metrics.admissions,
            static_cast<long>(workload.size()) + result.metrics.evictions);
  EXPECT_GE(result.metrics.AttainmentPct(), 0.0);
  EXPECT_LE(result.metrics.AttainmentPct(), 100.0);
  for (const Request& req : result.requests) {
    EXPECT_EQ(req.state, RequestState::kFinished);
    EXPECT_EQ(req.output_len(), req.target_output_len);
    EXPECT_EQ(req.prefill_progress, req.prompt_len);
  }
}

INSTANTIATE_TEST_SUITE_P(MainComparisonSet, TickEquivalence,
                         ::testing::ValuesIn(MainComparisonSet()),
                         [](const ::testing::TestParamInfo<SystemKind>& info) {
                           std::string name(SystemName(info.param));
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch))) {
                               ch = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace adaserve
