// Coverage for the shared test fixtures themselves (tests/test_util.h):
// every other suite builds on these, so their invariants are load-bearing.
#include <gtest/gtest.h>

#include <algorithm>

#include "tests/test_util.h"

namespace adaserve {
namespace {

TEST(TestUtil, UniformWorkloadArrivalsAreMonotoneAndSpread) {
  Experiment exp(TestSetup());
  const int n = 20;
  const double spread_s = 5.0;
  const std::vector<Request> reqs = UniformWorkload(exp, n, kCatChat, spread_s);
  ASSERT_EQ(reqs.size(), static_cast<size_t>(n));
  EXPECT_EQ(reqs.front().arrival, 0.0);
  for (size_t i = 1; i < reqs.size(); ++i) {
    EXPECT_GT(reqs[i].arrival, reqs[i - 1].arrival) << "arrival not strictly increasing at " << i;
  }
  EXPECT_LT(reqs.back().arrival, spread_s);
  // Sequential ids, uniform spacing.
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(reqs[i].id, static_cast<RequestId>(i));
    EXPECT_DOUBLE_EQ(reqs[i].arrival, spread_s * static_cast<double>(i) / n);
  }
}

TEST(TestUtil, UniformWorkloadSlosMatchCategoryTable) {
  Experiment exp(TestSetup());
  const std::vector<CategorySpec> cats = exp.Categories();
  for (int category = 0; category < kNumCategories; ++category) {
    const std::vector<Request> reqs = UniformWorkload(exp, 5, category, 1.0);
    for (const Request& req : reqs) {
      EXPECT_EQ(req.category, category);
      EXPECT_EQ(req.tpot_slo, cats[static_cast<size_t>(category)].tpot_slo)
          << "category " << category;
      EXPECT_GT(req.tpot_slo, 0.0);
    }
  }
}

TEST(TestUtil, UniformWorkloadLengthsAndSeeds) {
  Experiment exp(TestSetup());
  const std::vector<Request> reqs = UniformWorkload(exp, 8, kCatCoding, 2.0,
                                                    /*prompt_len=*/48, /*output_len=*/12);
  std::vector<uint64_t> seeds;
  for (const Request& req : reqs) {
    EXPECT_EQ(req.prompt_len, 48);
    EXPECT_EQ(req.target_output_len, 12);
    seeds.push_back(req.stream_seed);
  }
  // Stream seeds must be distinct or synthetic token streams collide.
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(TestUtil, SmallMixedWorkloadCoversCategoriesSorted) {
  Experiment exp(TestSetup());
  const std::vector<Request> reqs = SmallMixedWorkload(exp);
  ASSERT_GT(reqs.size(), 0u);
  EXPECT_TRUE(std::is_sorted(reqs.begin(), reqs.end(),
                             [](const Request& a, const Request& b) {
                               return a.arrival < b.arrival;
                             }));
  for (const Request& req : reqs) {
    EXPECT_GE(req.category, 0);
    EXPECT_LT(req.category, kNumCategories);
    EXPECT_GT(req.prompt_len, 0);
    EXPECT_GT(req.target_output_len, 0);
  }
}

TEST(TestUtil, TestSetupRunsAnEndToEndEngineTick) {
  // TestSetup must be able to drive the real engine loop, not just
  // construct: serve a tiny workload to completion through AdaServe.
  Experiment exp(TestSetup());
  std::vector<Request> workload = UniformWorkload(exp, 4, kCatChat, 0.5);
  auto scheduler = MakeScheduler(SystemKind::kAdaServe);
  const LoggedRun run = RunLogged(exp, *scheduler, std::move(workload));
  const EngineResult& result = run.result;
  EXPECT_EQ(result.metrics.finished, 4);
  EXPECT_GT(run.ticks.size(), 0u);
  EXPECT_GT(result.end_time, 0.0);
  for (const Request& req : result.requests) {
    EXPECT_EQ(req.state, RequestState::kFinished);
    EXPECT_EQ(static_cast<int>(req.output.size()), req.target_output_len);
  }
}

}  // namespace
}  // namespace adaserve
