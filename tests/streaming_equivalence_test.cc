// Streaming-equivalence property suite: for every system in
// MainComparisonSet() and every generator-backed stream scenario, a run fed
// lazily by the stream must produce bit-identical metrics to a run fed the
// same trace as a materialized vector — including when the streaming run
// retires finished requests and skips the iteration log. This extends the
// PR-1 determinism guarantee to the lazy admission path.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tests/test_util.h"

namespace adaserve {
namespace {

// Stream scenarios exercised per system. Each factory call returns a fresh
// identical (same-seed) stream.
struct Scenario {
  const char* name;
  std::function<std::unique_ptr<ArrivalStream>()> make;
};

std::vector<Scenario> Scenarios(const Experiment& exp) {
  const std::vector<CategorySpec> cats = exp.Categories();
  return {
      {"real_trace",
       [&exp] { return exp.RealTraceStream(/*duration=*/6.0, /*mean_rps=*/3.0); }},
      {"bursty",
       [cats] {
         MmppStreamConfig config;
         config.mmpp.state_rps = {1.0, 9.0};
         config.mmpp.mean_sojourn_s = {1.5, 1.0};
         config.duration = 6.0;
         config.trace_seed = 17;
         return MakeMmppStream(cats, config);
       }},
      {"diurnal",
       [cats] {
         DiurnalStreamConfig config;
         config.duration = 6.0;
         config.mean_rps = 3.5;
         config.diurnal.period_s = 6.0;
         config.diurnal.amplitude = 0.9;
         config.trace_seed = 23;
         return MakeDiurnalStream(cats, config);
       }},
      {"churn",
       [cats] {
         ChurnStreamConfig config;
         config.duration = 6.0;
         config.mean_rps = 3.5;
         config.trace_seed = 31;
         return MakeChurnStream(cats, config);
       }},
  };
}

void ExpectMetricsBitIdentical(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.finished, b.finished);
  EXPECT_EQ(a.attained, b.attained);
  EXPECT_EQ(a.output_tokens(), b.output_tokens());
  EXPECT_EQ(a.attained_tokens(), b.attained_tokens());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.mean_accepted, b.mean_accepted);
  EXPECT_EQ(a.ThroughputTps(), b.ThroughputTps());
  EXPECT_EQ(a.GoodputTps(), b.GoodputTps());
  EXPECT_EQ(a.spec_time, b.spec_time);
  EXPECT_EQ(a.select_time, b.select_time);
  EXPECT_EQ(a.verify_time, b.verify_time);
  EXPECT_EQ(a.prefill_time, b.prefill_time);
  EXPECT_EQ(a.total_time, b.total_time);
  for (size_t c = 0; c < static_cast<size_t>(kNumCategories); ++c) {
    const CategoryMetrics& ca = a.per_category[c];
    const CategoryMetrics& cb = b.per_category[c];
    EXPECT_EQ(ca.finished, cb.finished) << "cat " << c;
    EXPECT_EQ(ca.attained, cb.attained) << "cat " << c;
    EXPECT_EQ(ca.output_tokens, cb.output_tokens) << "cat " << c;
    EXPECT_EQ(ca.attained_tokens, cb.attained_tokens) << "cat " << c;
    // Per-request sample vectors, element-exact: accumulation order on the
    // streaming path (retire in id order) must match the batch path.
    EXPECT_EQ(ca.tpot_ms.values(), cb.tpot_ms.values()) << "cat " << c;
    EXPECT_EQ(ca.ttft_ms.values(), cb.ttft_ms.values()) << "cat " << c;
  }
}

class StreamingEquivalence : public ::testing::TestWithParam<SystemKind> {
 protected:
  static void SetUpTestSuite() { exp_ = new Experiment(TestSetup()); }
  static void TearDownTestSuite() {
    delete exp_;
    exp_ = nullptr;
  }
  static Experiment* exp_;
};

Experiment* StreamingEquivalence::exp_ = nullptr;

// Lazy stream vs the same trace materialized up front: identical metrics,
// iteration log, and per-request records.
TEST_P(StreamingEquivalence, LazyStreamMatchesMaterializedVector) {
  const SystemKind kind = GetParam();
  for (const Scenario& scenario : Scenarios(*exp_)) {
    SCOPED_TRACE(scenario.name);
    auto drain = scenario.make();
    std::vector<Request> trace = Materialize(*drain);
    ASSERT_FALSE(trace.empty());

    auto vec_scheduler = MakeScheduler(kind);
    const LoggedRun vec_logged = RunLogged(*exp_, *vec_scheduler, trace);
    const EngineResult& vec_run = vec_logged.result;

    auto stream = scenario.make();
    auto stream_scheduler = MakeScheduler(kind);
    const LoggedRun stream_logged = RunLogged(*exp_, *stream_scheduler, *stream);
    const EngineResult& stream_run = stream_logged.result;

    ExpectMetricsBitIdentical(vec_run.metrics, stream_run.metrics);
    EXPECT_EQ(vec_run.end_time, stream_run.end_time);
    EXPECT_EQ(vec_run.total_iterations, stream_run.total_iterations);
    ASSERT_EQ(vec_logged.ticks.size(), stream_logged.ticks.size());
    ASSERT_EQ(vec_run.requests.size(), stream_run.requests.size());
    EXPECT_EQ(stream_run.requests.size(), trace.size());
    for (size_t i = 0; i < vec_run.requests.size(); ++i) {
      EXPECT_EQ(vec_run.requests[i].output, stream_run.requests[i].output) << "request " << i;
      EXPECT_EQ(vec_run.requests[i].token_times, stream_run.requests[i].token_times)
          << "request " << i;
      EXPECT_EQ(vec_run.requests[i].finish_time, stream_run.requests[i].finish_time)
          << "request " << i;
    }
  }
}

// The O(active)-memory configuration (retire finished requests) must not
// change a single metric bit.
TEST_P(StreamingEquivalence, RetiringRunMetricsBitIdentical) {
  const SystemKind kind = GetParam();
  for (const Scenario& scenario : Scenarios(*exp_)) {
    SCOPED_TRACE(scenario.name);
    auto drain = scenario.make();
    const std::vector<Request> trace = Materialize(*drain);
    ASSERT_FALSE(trace.empty());

    auto vec_scheduler = MakeScheduler(kind);
    const EngineResult vec_run = exp_->Run(*vec_scheduler, trace);

    EngineConfig streaming;
    streaming.retire_finished = true;
    auto stream = scenario.make();
    auto stream_scheduler = MakeScheduler(kind);
    const EngineResult stream_run = exp_->Run(*stream_scheduler, *stream, streaming);

    ExpectMetricsBitIdentical(vec_run.metrics, stream_run.metrics);
    EXPECT_EQ(vec_run.end_time, stream_run.end_time);
    EXPECT_EQ(vec_run.total_iterations, stream_run.total_iterations);
    // The streaming run keeps no per-request state around.
    EXPECT_TRUE(stream_run.requests.empty());
    EXPECT_LE(stream_run.peak_resident_requests, trace.size());
  }
}

// A MaterializedStream over the trace must be indistinguishable from the
// vector overload (which wraps one internally).
TEST_P(StreamingEquivalence, MaterializedStreamMatchesVectorOverload) {
  const SystemKind kind = GetParam();
  auto drain = Scenarios(*exp_)[0].make();
  const std::vector<Request> trace = Materialize(*drain);
  ASSERT_FALSE(trace.empty());

  auto vec_scheduler = MakeScheduler(kind);
  const EngineResult vec_run = exp_->Run(*vec_scheduler, trace);

  MaterializedStream stream(trace);
  auto stream_scheduler = MakeScheduler(kind);
  const EngineResult stream_run = exp_->Run(*stream_scheduler, stream);

  ExpectMetricsBitIdentical(vec_run.metrics, stream_run.metrics);
  EXPECT_EQ(vec_run.end_time, stream_run.end_time);
}

std::string ParamName(const ::testing::TestParamInfo<SystemKind>& info) {
  return GoldenFileSlug(info.param);
}

INSTANTIATE_TEST_SUITE_P(MainComparison, StreamingEquivalence,
                         ::testing::ValuesIn(MainComparisonSet()), ParamName);

}  // namespace
}  // namespace adaserve
