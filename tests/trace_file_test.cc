// TraceFileArrivalStream round-trip and error-path suite: CSV -> stream
// -> drain must reproduce a hand-built request vector exactly; malformed
// input fails with line-numbered errors; and the stream composes with
// the cluster router pre-pass unchanged.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/workload/trace_file.h"
#include "tests/test_util.h"

namespace adaserve {
namespace {

std::vector<CategorySpec> TestCategories() { return Experiment(TestSetup()).Categories(); }

// The CSV twin of UniformWorkload-style hand-built requests.
std::vector<Request> HandBuiltRequests(const std::vector<CategorySpec>& cats) {
  std::vector<Request> reqs;
  const int categories[] = {0, 1, 2, 1};
  const double arrivals[] = {0.0, 0.25, 0.25, 1.5};
  const int prompts[] = {64, 12, 700, 33};
  const int outputs[] = {24, 8, 120, 2};
  for (size_t i = 0; i < 4; ++i) {
    Request req;
    req.id = static_cast<RequestId>(i);
    req.category = categories[i];
    req.tpot_slo = cats[static_cast<size_t>(categories[i])].tpot_slo;
    req.arrival = arrivals[i];
    req.prompt_len = prompts[i];
    req.target_output_len = outputs[i];
    req.stream_seed = HashCombine(Mix64(0xadaceedeULL), static_cast<uint64_t>(i));
    reqs.push_back(req);
  }
  return reqs;
}

void ExpectSameRequests(const std::vector<Request>& want, const std::vector<Request>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id) << i;
    EXPECT_EQ(want[i].category, got[i].category) << i;
    EXPECT_EQ(want[i].tpot_slo, got[i].tpot_slo) << i;
    EXPECT_EQ(want[i].arrival, got[i].arrival) << i;
    EXPECT_EQ(want[i].prompt_len, got[i].prompt_len) << i;
    EXPECT_EQ(want[i].target_output_len, got[i].target_output_len) << i;
    EXPECT_EQ(want[i].stream_seed, got[i].stream_seed) << i;
  }
}

TEST(TraceFileTest, CsvRoundTripEqualsHandBuiltVector) {
  const std::vector<CategorySpec> cats = TestCategories();
  const std::vector<Request> want = HandBuiltRequests(cats);

  // Writer -> parser round trip.
  const std::string csv = TraceCsvFromRequests(want);
  std::string error;
  auto stream = TraceFileArrivalStream::FromString(cats, csv, &error);
  ASSERT_NE(stream, nullptr) << error;
  EXPECT_EQ(stream->size(), want.size());
  ExpectSameRequests(want, Materialize(*stream));
}

TEST(TraceFileTest, ParsesHeaderCommentsBlanksAndCategoryDefaultSlo) {
  const std::vector<CategorySpec> cats = TestCategories();
  const std::string csv =
      "timestamp,prompt_tokens,output_tokens,category\n"
      "# recorded 2026-08-01\n"
      "\n"
      "0.5,100,10,0\n"
      "1.25,30,4,2,0.5\n";
  std::string error;
  auto stream = TraceFileArrivalStream::FromString(cats, csv, &error);
  ASSERT_NE(stream, nullptr) << error;
  const std::vector<Request> got = Materialize(*stream);
  ASSERT_EQ(got.size(), 2u);
  // Row without tpot_slo falls back to the category default.
  EXPECT_EQ(got[0].tpot_slo, cats[0].tpot_slo);
  EXPECT_EQ(got[0].category, 0);
  // Explicit override wins.
  EXPECT_EQ(got[1].tpot_slo, 0.5);
  // Output clamp: the engine needs >= 2 output tokens.
  const std::string clamp_csv = "0.0,10,1,0\n";
  auto clamped = TraceFileArrivalStream::FromString(cats, clamp_csv, &error);
  ASSERT_NE(clamped, nullptr) << error;
  EXPECT_EQ(clamped->Peek()->target_output_len, 2);
}

TEST(TraceFileTest, MalformedLinesFailWithLineNumbers) {
  const std::vector<CategorySpec> cats = TestCategories();
  struct Case {
    std::string name;
    std::string csv;
    std::string want_error_substr;
  };
  const Case cases[] = {
      {"empty file", "", "no data rows"},
      {"header only", "timestamp,prompt_tokens,output_tokens,category\n", "no data rows"},
      {"too few columns", "0.0,10,5\n", "line 1"},
      {"too many columns", "0.0,10,5,0,0.1,9\n", "line 1"},
      {"bad timestamp", "zero,10,5,0\n", "bad timestamp"},
      {"negative timestamp", "-1.0,10,5,0\n", "line 1: bad arrival time -1"},
      {"bad prompt", "0.0,ten,5,0\n", "bad prompt_tokens"},
      {"zero prompt", "0.0,0,5,0\n", "line 1: bad prompt_len 0"},
      {"bad output", "0.0,10,-3,0\n", "line 1: bad target_output_len -3"},
      {"bad category", "0.0,10,5,7\n", "bad category"},
      {"bad slo", "0.0,10,5,0,-0.5\n", "bad tpot_slo"},
      {"out of order", "1.0,10,5,0\n0.5,10,5,0\n", "line 2: out-of-order arrival time 0.5"},
      {"error on line 2", "0.5,10,5,0\nnope,10,5,0\n", "line 2"},
      // from_chars reads "nan" and "inf"; the row check must refuse them
      // (a nan arrival never becomes due and exhausts the engine's budget).
      {"nan timestamp", "nan,10,5,0\n", "line 1: bad arrival time nan"},
      {"inf timestamp", "inf,10,5,0\n", "line 1: bad arrival time inf"},
      {"nan slo", "0.0,10,5,0,nan\n", "line 1: bad tpot_slo nan"},
      {"inf slo", "0.0,10,5,0,inf\n", "line 1: bad tpot_slo inf"},
      {"nan timestamp on line 2", "0.5,10,5,0\nnan,10,5,0\n", "line 2: bad arrival time nan"},
  };
  for (const Case& c : cases) {
    std::string error;
    auto stream = TraceFileArrivalStream::FromString(cats, c.csv, &error);
    EXPECT_EQ(stream, nullptr) << c.name;
    EXPECT_NE(error.find(c.want_error_substr), std::string::npos)
        << c.name << ": error was '" << error << "'";
  }
}

TEST(TraceFileTest, OpenMissingFileFails) {
  std::string error;
  auto stream =
      TraceFileArrivalStream::Open(TestCategories(), "/nonexistent/trace.csv", &error);
  EXPECT_EQ(stream, nullptr);
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(TraceFileTest, FileRoundTripThroughDisk) {
  const std::vector<CategorySpec> cats = TestCategories();
  const std::vector<Request> want = HandBuiltRequests(cats);
  const std::string path = testing::TempDir() + "/adaserve_trace_roundtrip.csv";
  std::string error;
  ASSERT_TRUE(WriteTraceCsv(path, want, &error)) << error;
  auto stream = TraceFileArrivalStream::Open(cats, path, &error);
  ASSERT_NE(stream, nullptr) << error;
  ExpectSameRequests(want, Materialize(*stream));
  std::remove(path.c_str());
}

// The cluster router pre-pass consumes the stream like any generator:
// partitions preserve arrival order and conserve every request.
TEST(TraceFileTest, ClusterPartitionConservesTraceRequests) {
  const Experiment probe(TestSetup());
  const std::vector<CategorySpec> cats = probe.Categories();
  std::vector<Request> want;
  for (int i = 0; i < 200; ++i) {
    Request req;
    req.id = i;
    req.category = i % kNumCategories;
    req.tpot_slo = cats[static_cast<size_t>(i % kNumCategories)].tpot_slo;
    req.arrival = 0.05 * i;
    req.prompt_len = 32;
    req.target_output_len = 8;
    req.stream_seed = HashCombine(Mix64(0xadaceedeULL), static_cast<uint64_t>(i));
    want.push_back(req);
  }
  const std::string csv = TraceCsvFromRequests(want);
  std::string error;
  auto stream = TraceFileArrivalStream::FromString(cats, csv, &error);
  ASSERT_NE(stream, nullptr) << error;

  ClusterConfig config;
  config.replicas.push_back({TestSetup(), EngineConfig{}});
  config.replicas.push_back({TestSetup(), EngineConfig{}});
  config.router = RouterPolicy::kRoundRobin;
  const Cluster cluster(config);
  const std::vector<std::vector<Request>> parts = cluster.Partition(*stream);

  size_t total = 0;
  for (const std::vector<Request>& part : parts) {
    for (size_t i = 0; i < part.size(); ++i) {
      // Dense per-replica re-iding, nondecreasing arrivals.
      EXPECT_EQ(part[i].id, static_cast<RequestId>(i));
      if (i > 0) {
        EXPECT_GE(part[i].arrival, part[i - 1].arrival);
      }
    }
    total += part.size();
  }
  EXPECT_EQ(total, want.size());
}

}  // namespace
}  // namespace adaserve
