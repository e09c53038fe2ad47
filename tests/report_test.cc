#include "src/harness/report.h"

#include <gtest/gtest.h>

#include <sstream>

#include "tests/test_util.h"

namespace adaserve {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  ReportTest() : exp_(TestSetup()) {}

  EngineResult RunSmall() {
    AdaServeScheduler scheduler;
    return exp_.Run(scheduler, UniformWorkload(exp_, 3, kCatChat, 0.1));
  }

  static size_t CountLines(const std::string& s) {
    size_t lines = 0;
    for (char c : s) {
      if (c == '\n') {
        ++lines;
      }
    }
    return lines;
  }

  Experiment exp_;
};

TEST_F(ReportTest, RequestCsvOneRowPerRequest) {
  const EngineResult result = RunSmall();
  std::ostringstream os;
  WriteRequestCsv(os, result.requests);
  EXPECT_EQ(CountLines(os.str()), 1u + result.requests.size());
  EXPECT_NE(os.str().find("id,category,arrival_s"), std::string::npos);
}

TEST_F(ReportTest, IterationCsvSinkWritesOneRowPerTick) {
  std::ostringstream os;
  IterationCsvSink sink(os);
  EngineConfig engine;
  engine.trace_sink = &sink;
  AdaServeScheduler scheduler;
  exp_.Run(scheduler, UniformWorkload(exp_, 3, kCatChat, 0.1), engine);
  EXPECT_EQ(os.str().rfind("duration_ms,spec_ms,select_ms,verify_ms,prefill_ms,", 0), 0u);
  EXPECT_EQ(CountLines(os.str()), 1u + static_cast<size_t>(sink.rows()));
  AdaServeScheduler twin;
  const LoggedRun run = RunLogged(exp_, twin, UniformWorkload(exp_, 3, kCatChat, 0.1));
  ASSERT_FALSE(run.ticks.empty());
  EXPECT_EQ(static_cast<size_t>(sink.rows()), run.ticks.size());
}

TEST_F(ReportTest, EngineResultCarriesFinishedRequests) {
  const EngineResult result = RunSmall();
  ASSERT_EQ(result.requests.size(), 3u);
  for (const Request& req : result.requests) {
    EXPECT_EQ(req.state, RequestState::kFinished);
    EXPECT_EQ(req.output_len(), req.target_output_len);
  }
}

TEST_F(ReportTest, TtftRecordedPerCategory) {
  const EngineResult result = RunSmall();
  const CategoryMetrics& chat = result.metrics.per_category[kCatChat];
  EXPECT_EQ(chat.ttft_ms.count(), 3u);
  EXPECT_GT(chat.ttft_ms.Min(), 0.0);
}

}  // namespace
}  // namespace adaserve
