#include "src/workload/generator.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>

namespace adaserve {
namespace {

std::vector<CategorySpec> Cats() { return DefaultCategories(/*baseline=*/0.025); }

// The whole workload a WorkloadStream draws over `process` with a fixed
// mix and sampling seed.
std::vector<Request> StreamWorkload(std::unique_ptr<ArrivalProcess> process,
                                    const WorkloadConfig& config,
                                    const std::vector<CategorySpec>& cats = Cats()) {
  WorkloadStream stream(cats, std::move(process), ConstantMix(config.mix), config.seed);
  return Materialize(stream);
}

std::vector<Request> PoissonWorkload(const TraceConfig& trace, const WorkloadConfig& config,
                                     const std::vector<CategorySpec>& cats = Cats()) {
  return StreamWorkload(MakePoissonProcess(trace.duration, trace.mean_rps, trace.seed), config,
                        cats);
}

TEST(Categories, Table2SlosResolved) {
  const std::vector<CategorySpec> cats = Cats();
  ASSERT_EQ(cats.size(), static_cast<size_t>(kNumCategories));
  EXPECT_NEAR(cats[kCatCoding].tpot_slo, 1.2 * 0.025, 1e-12);
  EXPECT_NEAR(cats[kCatChat].tpot_slo, 0.050, 1e-12);
  EXPECT_NEAR(cats[kCatSummarization].tpot_slo, 0.150, 1e-12);
}

TEST(Categories, SloScaleAppliesToCat1Only) {
  CategoryConfig config;
  config.cat1_slo_scale = 0.6;
  const std::vector<CategorySpec> cats = DefaultCategories(0.025, config);
  EXPECT_NEAR(cats[kCatCoding].tpot_slo, 0.6 * 0.025, 1e-12);
  EXPECT_NEAR(cats[kCatChat].tpot_slo, 0.050, 1e-12);
}

TEST(Categories, SummarizationHasLongestPrompts) {
  const std::vector<CategorySpec> cats = Cats();
  EXPECT_GT(cats[kCatSummarization].prompt_len.log_mean, cats[kCatCoding].prompt_len.log_mean);
  EXPECT_GT(cats[kCatSummarization].prompt_len.log_mean, cats[kCatChat].prompt_len.log_mean);
}

TEST(LengthDist, SamplesWithinBounds) {
  LengthDist dist{.log_mean = 4.0, .log_stddev = 1.0, .min_len = 10, .max_len = 100};
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int len = dist.Sample(rng);
    EXPECT_GE(len, 10);
    EXPECT_LE(len, 100);
  }
}

TEST(Generator, RequestsSortedWithDenseIds) {
  TraceConfig trace;
  trace.duration = 50.0;
  trace.mean_rps = 4.0;
  const std::vector<Request> reqs = StreamWorkload(MakeRealShapedProcess(trace), WorkloadConfig{});
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(reqs[i].id, static_cast<RequestId>(i));
    if (i > 0) {
      EXPECT_GE(reqs[i].arrival, reqs[i - 1].arrival);
    }
  }
}

TEST(Generator, MixProportionsApproximatelyRespected) {
  TraceConfig trace;
  trace.duration = 3000.0;
  trace.mean_rps = 4.0;
  WorkloadConfig config;
  config.mix = {0.6, 0.2, 0.2};
  const std::vector<Request> reqs = PoissonWorkload(trace, config);
  std::array<int, kNumCategories> counts = {0, 0, 0};
  for (const Request& r : reqs) {
    ++counts[static_cast<size_t>(r.category)];
  }
  const double n = static_cast<double>(reqs.size());
  EXPECT_NEAR(counts[0] / n, 0.6, 0.03);
  EXPECT_NEAR(counts[1] / n, 0.2, 0.03);
  EXPECT_NEAR(counts[2] / n, 0.2, 0.03);
}

TEST(Generator, DegenerateMixProducesSingleCategory) {
  TraceConfig trace;
  trace.duration = 50.0;
  trace.mean_rps = 4.0;
  WorkloadConfig config;
  config.mix = {0.0, 1.0, 0.0};
  const std::vector<Request> reqs = PoissonWorkload(trace, config);
  for (const Request& r : reqs) {
    EXPECT_EQ(r.category, kCatChat);
  }
}

TEST(Generator, OutputLengthAtLeastTwo) {
  // The TPOT denominator (output_len - 1) must never be zero.
  TraceConfig trace;
  trace.duration = 500.0;
  trace.mean_rps = 4.0;
  const std::vector<Request> reqs = PoissonWorkload(trace, WorkloadConfig{});
  for (const Request& r : reqs) {
    EXPECT_GE(r.target_output_len, 2);
    EXPECT_GE(r.prompt_len, 1);
  }
}

TEST(Generator, SlosMatchCategory) {
  TraceConfig trace;
  trace.duration = 100.0;
  trace.mean_rps = 4.0;
  const std::vector<CategorySpec> cats = Cats();
  const std::vector<Request> reqs = PoissonWorkload(trace, WorkloadConfig{}, cats);
  for (const Request& r : reqs) {
    EXPECT_EQ(r.tpot_slo, cats[static_cast<size_t>(r.category)].tpot_slo);
  }
}

TEST(Generator, StreamSeedsUnique) {
  TraceConfig trace;
  trace.duration = 100.0;
  trace.mean_rps = 4.0;
  const std::vector<Request> reqs = PoissonWorkload(trace, WorkloadConfig{});
  for (size_t i = 1; i < reqs.size(); ++i) {
    EXPECT_NE(reqs[i].stream_seed, reqs[i - 1].stream_seed);
  }
}

TEST(Generator, BurstyWorkloadCoversAllCategories) {
  std::array<BurstSpec, kNumCategories> bursts;
  bursts.fill(BurstSpec{.base_rps = 1.0, .peak_rps = 3.0, .peak_phase = 0.5, .peak_width = 0.1});
  const std::vector<Request> reqs = BuildBurstyWorkload(Cats(), bursts, 200.0, 5);
  std::array<int, kNumCategories> counts = {0, 0, 0};
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(reqs[i].id, static_cast<RequestId>(i));
    ++counts[static_cast<size_t>(reqs[i].category)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 0);
  }
}

// --- streaming generation ---------------------------------------------------

TEST(Stream, MmppStreamSortedDenseAndDeterministic) {
  MmppStreamConfig config;
  config.mmpp.state_rps = {0.5, 8.0};
  config.mmpp.mean_sojourn_s = {20.0, 5.0};
  config.duration = 500.0;
  config.trace_seed = 41;
  auto a = MakeMmppStream(Cats(), config);
  auto b = MakeMmppStream(Cats(), config);
  const std::vector<Request> first = Materialize(*a);
  const std::vector<Request> second = Materialize(*b);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, static_cast<RequestId>(i));
    EXPECT_EQ(first[i].arrival, second[i].arrival);
    EXPECT_EQ(first[i].category, second[i].category);
    EXPECT_EQ(first[i].prompt_len, second[i].prompt_len);
    if (i > 0) {
      EXPECT_GE(first[i].arrival, first[i - 1].arrival);
    }
  }
}

TEST(Stream, MmppStreamExactCountsUnderFixedSeed) {
  MmppStreamConfig config;
  config.mmpp.state_rps = {0.5, 8.0};
  config.mmpp.mean_sojourn_s = {20.0, 5.0};
  config.duration = 500.0;
  config.trace_seed = 41;
  auto stream = MakeMmppStream(Cats(), config);
  const std::vector<Request> reqs = Materialize(*stream);
  ASSERT_EQ(reqs.size(), 840u);
  std::array<int, kNumCategories> counts = {0, 0, 0};
  for (const Request& r : reqs) {
    ++counts[static_cast<size_t>(r.category)];
  }
  // The {0.6, 0.2, 0.2} default mix under seed 7 sampling.
  EXPECT_EQ(counts[0], 496);
  EXPECT_EQ(counts[1], 170);
  EXPECT_EQ(counts[2], 174);
}

TEST(Stream, ChurnMixDriftsFromStartToEnd) {
  ChurnStreamConfig config;
  config.duration = 3000.0;
  config.mean_rps = 2.0;
  config.trace_seed = 19;
  auto stream = MakeChurnStream(Cats(), config);
  const std::vector<Request> reqs = Materialize(*stream);
  ASSERT_GT(reqs.size(), 1000u);
  std::array<int, kNumCategories> early = {0, 0, 0};
  std::array<int, kNumCategories> late = {0, 0, 0};
  int early_n = 0;
  int late_n = 0;
  for (const Request& r : reqs) {
    if (r.arrival < 1000.0) {
      ++early[static_cast<size_t>(r.category)];
      ++early_n;
    } else if (r.arrival >= 2000.0) {
      ++late[static_cast<size_t>(r.category)];
      ++late_n;
    }
  }
  // Start mix {0.8, 0.1, 0.1} drifting to {0.1, 0.1, 0.8}: the first third
  // averages ~2/3 coding, the last third ~2/3 summarization.
  EXPECT_NEAR(static_cast<double>(early[0]) / early_n, 0.68, 0.05);
  EXPECT_NEAR(static_cast<double>(early[2]) / early_n, 0.22, 0.05);
  EXPECT_NEAR(static_cast<double>(late[0]) / late_n, 0.22, 0.05);
  EXPECT_NEAR(static_cast<double>(late[2]) / late_n, 0.68, 0.05);
}

TEST(Stream, ChurnExactCountsUnderFixedSeed) {
  ChurnStreamConfig config;
  config.duration = 3000.0;
  config.mean_rps = 2.0;
  config.trace_seed = 19;
  auto stream = MakeChurnStream(Cats(), config);
  const std::vector<Request> reqs = Materialize(*stream);
  ASSERT_EQ(reqs.size(), 5910u);
  std::array<int, kNumCategories> counts = {0, 0, 0};
  for (const Request& r : reqs) {
    ++counts[static_cast<size_t>(r.category)];
  }
  EXPECT_EQ(counts[0], 2658);
  EXPECT_EQ(counts[1], 601);
  EXPECT_EQ(counts[2], 2651);
}

TEST(Stream, MaxRequestsCapsEmission) {
  ChurnStreamConfig config;
  config.duration = 1e9;
  config.mean_rps = 50.0;
  config.max_requests = 10;
  auto stream = MakeChurnStream(Cats(), config);
  EXPECT_FALSE(stream->Exhausted());
  const std::vector<Request> reqs = Materialize(*stream);
  EXPECT_EQ(reqs.size(), 10u);
  EXPECT_TRUE(stream->Exhausted());
  EXPECT_EQ(stream->Peek(), nullptr);
  EXPECT_EQ(stream->emitted(), 10u);
}

TEST(Stream, PeekIsStableAndMatchesNext) {
  DiurnalStreamConfig config;
  config.duration = 50.0;
  config.mean_rps = 2.0;
  auto stream = MakeDiurnalStream(Cats(), config);
  while (!stream->Exhausted()) {
    const Request* peeked = stream->Peek();
    ASSERT_NE(peeked, nullptr);
    const RequestId id = peeked->id;
    const SimTime arrival = peeked->arrival;
    // Peeking again must not advance generation.
    EXPECT_EQ(stream->Peek()->id, id);
    const Request next = stream->Next();
    EXPECT_EQ(next.id, id);
    EXPECT_EQ(next.arrival, arrival);
  }
}

TEST(Generator, DeterministicForSeed) {
  TraceConfig trace;
  trace.duration = 60.0;
  trace.mean_rps = 3.0;
  WorkloadConfig config;
  config.seed = 11;
  const std::vector<Request> a = PoissonWorkload(trace, config);
  const std::vector<Request> b = PoissonWorkload(trace, config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].category, b[i].category);
    EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
    EXPECT_EQ(a[i].target_output_len, b[i].target_output_len);
  }
}

}  // namespace
}  // namespace adaserve
