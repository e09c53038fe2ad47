// Record/replay determinism suite: for every MainComparisonSet system the
// recorded artifact of a run must re-execute byte-identically
// (GoldenMetricsText) in tick-native mode, on the streaming path, and for
// every replica of a 2-replica cluster run; artifact serialization
// round-trips exactly, in memory and through a file; malformed arrival
// lines, out-of-range config integers and foreign schema versions are
// parse errors; and an injected single-bit corruption is detected with
// the correct first-divergent-tick.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/cluster_metrics.h"
#include "src/harness/replay.h"
#include "tests/test_util.h"

namespace adaserve {
namespace {

class ReplayDeterminismTest : public testing::TestWithParam<SystemKind> {
 protected:
  static void SetUpTestSuite() { exp_ = new Experiment(GoldenSetup()); }
  static void TearDownTestSuite() {
    delete exp_;
    exp_ = nullptr;
  }
  static Experiment* exp_;
};

Experiment* ReplayDeterminismTest::exp_ = nullptr;

// Recording is purely observational and replay re-executes byte-
// identically: the artifact's fingerprint equals the sink-free run's
// metrics, and ReplayRun reproduces it tick for tick.
TEST_P(ReplayDeterminismTest, TickNativeRecordReplayByteIdentical) {
  const SystemKind kind = GetParam();
  const RecordedRun run = RecordGoldenRun(*exp_, kind);
  ASSERT_GT(run.result.metrics.finished, 0);
  ASSERT_FALSE(run.artifact.ticks.empty());

  // Observer purity: a run with a recorder attached matches one without.
  const EngineResult bare = RunGoldenSystem(*exp_, kind);
  EXPECT_EQ(run.artifact.metrics_text, GoldenMetricsText(kind, bare.metrics));

  const ReplayOutcome outcome = ReplayRun(run.artifact);
  ASSERT_TRUE(outcome.ok) << outcome.divergence->Summary();
  EXPECT_EQ(outcome.metrics_text, run.artifact.metrics_text);
}

// The streaming path (lazy stream, bounded horizon, finished-request
// retirement) records and replays identically too.
TEST_P(ReplayDeterminismTest, StreamingRecordReplayByteIdentical) {
  const SystemKind kind = GetParam();
  const RecordedRun run =
      RecordGoldenRun(*exp_, kind, {}, GoldenScenario::kFlashCrowd, GoldenMode::kTickNative);
  ASSERT_GT(run.result.metrics.finished, 0);
  const ReplayOutcome outcome = ReplayRun(run.artifact);
  ASSERT_TRUE(outcome.ok) << outcome.divergence->Summary();
  EXPECT_EQ(outcome.metrics_text, run.artifact.metrics_text);
}

TEST_P(ReplayDeterminismTest, ClusterReplicaRecordReplayByteIdentical) {
  const SystemKind kind = GetParam();
  ClusterConfig config;
  config.replicas.push_back({GoldenSetup(), EngineConfig{}});
  config.replicas.push_back({GoldenSetup(), EngineConfig{}});
  config.router = RouterPolicy::kJoinShortestQueue;
  const std::unique_ptr<ArrivalStream> stream =
      MakeGoldenStream(*exp_, GoldenScenario::kRealTrace);
  const RecordedClusterRun run =
      RecordClusterRun(config, kind, *stream, {"golden", "golden"}, "cluster2");
  ASSERT_EQ(run.replicas.size(), 2u);

  // Every replica artifact replays standalone, byte-identically.
  std::vector<Metrics> replayed_parts;
  for (size_t i = 0; i < run.replicas.size(); ++i) {
    ASSERT_FALSE(run.replicas[i].arrivals.empty()) << "replica " << i << " got no traffic";
    const ReplayOutcome outcome = ReplayRun(run.replicas[i]);
    ASSERT_TRUE(outcome.ok) << "replica " << i << ": " << outcome.divergence->Summary();
    EXPECT_EQ(outcome.metrics_text, run.replicas[i].metrics_text) << "replica " << i;
    replayed_parts.push_back(outcome.result.metrics);
  }

  // And the merged fleet metrics rebuilt from the replays match the
  // original cluster run's merge.
  std::vector<Metrics> original_parts;
  for (const ReplicaRunResult& replica : run.result.replicas) {
    original_parts.push_back(replica.result.metrics);
  }
  EXPECT_EQ(GoldenMetricsText(kind, MergeMetrics(replayed_parts)),
            GoldenMetricsText(kind, MergeMetrics(original_parts)));
}

INSTANTIATE_TEST_SUITE_P(MainComparison, ReplayDeterminismTest,
                         testing::ValuesIn(MainComparisonSet()),
                         [](const testing::TestParamInfo<SystemKind>& info) {
                           return GoldenFileSlug(info.param);
                         });

TEST(ReplayArtifactTest, SerializationRoundTripsExactly) {
  const Experiment exp(GoldenSetup());
  const RecordedRun run = RecordGoldenRun(exp, SystemKind::kAdaServe);
  const std::string text = SerializeReplayArtifact(run.artifact);

  ReplayArtifact parsed;
  std::string error;
  ASSERT_TRUE(ParseReplayArtifact(text, &parsed, &error)) << error;
  EXPECT_EQ(SerializeReplayArtifact(parsed), text);
  EXPECT_EQ(parsed.arrivals.size(), run.artifact.arrivals.size());
  EXPECT_EQ(parsed.ticks.size(), run.artifact.ticks.size());
  EXPECT_EQ(parsed.metrics_text, run.artifact.metrics_text);

  // A parsed artifact replays just like the in-memory one.
  const ReplayOutcome outcome = ReplayRun(parsed);
  ASSERT_TRUE(outcome.ok) << outcome.divergence->Summary();
}

TEST(ReplayArtifactTest, TruncationAndVersionMismatchAreParseErrors) {
  const Experiment exp(GoldenSetup());
  const RecordedRun run = RecordGoldenRun(exp, SystemKind::kVllm);
  const std::string text = SerializeReplayArtifact(run.artifact);

  ReplayArtifact parsed;
  std::string error;
  EXPECT_FALSE(ParseReplayArtifact(text.substr(0, text.size() / 2), &parsed, &error));
  EXPECT_FALSE(error.empty());

  std::string future = text;
  const std::string header =
      "adaserve_replay_schema: " + std::to_string(kReplaySchemaVersion);
  ASSERT_EQ(future.find(header), 0u);
  future.replace(0, header.size(), "adaserve_replay_schema: 999");
  EXPECT_FALSE(ParseReplayArtifact(future, &parsed, &error));
  EXPECT_NE(error.find("unsupported replay schema"), std::string::npos) << error;

  // Schema 2 carried the planner fields, schema 3 the tick.event_driven
  // key, schema 4 the tick lines' rejected/degraded counters, schema 5
  // the engine's per-tick-log switch and schema 6 engine.max_iterations,
  // none of which this binary reads.
  for (const char* old_schema : {"2", "3", "4", "5", "6"}) {
    std::string old_text = text;
    old_text.replace(0, header.size(), std::string("adaserve_replay_schema: ") + old_schema);
    EXPECT_FALSE(ParseReplayArtifact(old_text, &parsed, &error));
    EXPECT_NE(error.find(std::string("unsupported replay schema ") + old_schema),
              std::string::npos)
        << error;
  }
}

// A serialized artifact with one field of one arrival line rewritten.
struct EditedArtifact {
  std::string text;
  // 1-based line number of the edited arrival line.
  size_t line_no = 0;
};

// `field` indexes the whitespace-separated tokens of the "a ..." line:
// 1 id, 2 category, 3 tpot_slo, 4 arrival, 5 prompt_len,
// 6 target_output_len, 7 stream_seed.
EditedArtifact WithArrivalField(const std::string& text, size_t arrival, size_t field,
                                const std::string& value) {
  EditedArtifact edited;
  std::stringstream in(text);
  std::string line;
  size_t line_no = 0;
  size_t arrivals_seen = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.rfind("a ", 0) == 0 && arrivals_seen++ == arrival) {
      std::stringstream fields(line);
      std::vector<std::string> tokens;
      for (std::string token; fields >> token;) {
        tokens.push_back(token);
      }
      tokens.at(field) = value;
      line.clear();
      for (const std::string& token : tokens) {
        line += (line.empty() ? "" : " ") + token;
      }
      edited.line_no = line_no;
    }
    edited.text += line + "\n";
  }
  return edited;
}

// Every arrival-line rule rejects at parse time with the offending line
// number, instead of the artifact aborting inside ReplayRun.
TEST(ReplayArtifactTest, MalformedArrivalLinesAreParseErrors) {
  const Experiment exp(GoldenSetup());
  const RecordedRun run = RecordGoldenRun(exp, SystemKind::kVllm);
  ASSERT_GE(run.artifact.arrivals.size(), 2u);
  // The decreasing-time case moves the second arrival to t = 0.
  ASSERT_GT(run.artifact.arrivals[0].arrival, 0.0);
  const std::string text = SerializeReplayArtifact(run.artifact);

  struct Case {
    const char* rule;
    size_t arrival;
    size_t field;
    const char* value;
    const char* message;
  };
  const Case cases[] = {
      {"category out of range", 0, 2, "9", "bad category 9"},
      {"negative category", 0, 2, "-1", "bad category -1"},
      {"zero tpot_slo", 0, 3, "0", "bad tpot_slo"},
      {"non-finite tpot_slo", 0, 3, "inf", "bad tpot_slo"},
      {"empty prompt", 0, 5, "0", "bad prompt_len"},
      {"prompt above INT_MAX", 0, 5, "2147483648", "bad prompt_len"},
      {"empty output", 0, 6, "0", "bad target_output_len"},
      // One output token has no decode step: Request::AvgTpot would abort.
      {"one-token output", 0, 6, "1", "bad target_output_len 1"},
      {"output above INT_MAX", 0, 6, "2147483648", "bad target_output_len"},
      {"non-dense id", 1, 1, "5", "non-dense id 5"},
      {"negative arrival time", 0, 4, "-1", "bad arrival time"},
      {"decreasing arrival time", 1, 4, "0", "out-of-order arrival time"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.rule);
    const EditedArtifact edited = WithArrivalField(text, c.arrival, c.field, c.value);
    ASSERT_GT(edited.line_no, 0u);
    ReplayArtifact parsed;
    std::string error;
    EXPECT_FALSE(ParseReplayArtifact(edited.text, &parsed, &error));
    EXPECT_EQ(error.rfind("line " + std::to_string(edited.line_no) + ": ", 0), 0u) << error;
    EXPECT_NE(error.find(c.message), std::string::npos) << error;
  }
}

// A config integer outside its field's range is a parse error on its own
// line, not a value silently truncated to fit (2^32 + 1 would read as 1).
TEST(ReplayArtifactTest, OutOfRangeConfigIntegerIsAParseError) {
  const Experiment exp(GoldenSetup());
  const RecordedRun run = RecordGoldenRun(exp, SystemKind::kVllm);
  std::stringstream in(SerializeReplayArtifact(run.artifact));
  std::string edited;
  size_t edited_line = 0;
  size_t line_no = 0;
  for (std::string line; std::getline(in, line);) {
    ++line_no;
    if (line.rfind("tick.max_active: ", 0) == 0) {
      line = "tick.max_active: 4294967297";
      edited_line = line_no;
    }
    edited += line + "\n";
  }
  ASSERT_GT(edited_line, 0u);
  ReplayArtifact parsed;
  std::string error;
  EXPECT_FALSE(ParseReplayArtifact(edited, &parsed, &error));
  EXPECT_EQ(error.rfind("line " + std::to_string(edited_line) + ": ", 0), 0u) << error;
  EXPECT_NE(error.find("tick.max_active"), std::string::npos) << error;
}

// The file path CI failure uploads take: an artifact written to disk
// reads back to one that serializes to the same text.
TEST(ReplayArtifactTest, DiskRoundTripIsExact) {
  const Experiment exp(GoldenSetup());
  const RecordedRun run = RecordGoldenRun(exp, SystemKind::kAdaServe);
  const std::string path = testing::TempDir() + "/adaserve_replay_roundtrip.replay";
  std::string error;
  ASSERT_TRUE(WriteReplayArtifact(path, run.artifact, &error)) << error;
  ReplayArtifact read;
  ASSERT_TRUE(ReadReplayArtifact(path, &read, &error)) << error;
  EXPECT_EQ(SerializeReplayArtifact(read), SerializeReplayArtifact(run.artifact));
  std::remove(path.c_str());
}

TEST(ReplayArtifactTest, ReadingAMissingArtifactFails) {
  ReplayArtifact artifact;
  std::string error;
  EXPECT_FALSE(ReadReplayArtifact("/nonexistent/artifact.replay", &artifact, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

// A single flipped bit in a recorded tick is caught, and the divergence
// report names exactly that tick and field — the debugging contract: the
// first divergent tick is where to look.
TEST(ReplayCorruptionTest, SingleBitFlipDetectedAtExactTick) {
  const Experiment exp(GoldenSetup());
  const RecordedRun run = RecordGoldenRun(exp, SystemKind::kAdaServe);
  ASSERT_GT(run.artifact.ticks.size(), 4u);
  const size_t victim = run.artifact.ticks.size() / 2;

  ReplayArtifact corrupted = run.artifact;
  corrupted.ticks[victim].record.committed_tokens ^= 1;

  // Serialize + reparse so the corruption flows the full artifact path.
  ReplayArtifact reloaded;
  std::string error;
  ASSERT_TRUE(ParseReplayArtifact(SerializeReplayArtifact(corrupted), &reloaded, &error)) << error;

  const ReplayOutcome outcome = ReplayRun(reloaded);
  ASSERT_FALSE(outcome.ok);
  ASSERT_TRUE(outcome.divergence.has_value());
  EXPECT_EQ(outcome.divergence->tick, static_cast<long>(victim));
  EXPECT_EQ(outcome.divergence->field, "record.committed_tokens");
  EXPECT_FALSE(outcome.divergence->Summary().empty());
}

// Corrupting an arrival cannot silently pass either: the replay serves
// the corrupted workload and the metrics fingerprint catches it.
TEST(ReplayCorruptionTest, CorruptedArrivalDiverges) {
  const Experiment exp(GoldenSetup());
  const RecordedRun run = RecordGoldenRun(exp, SystemKind::kVllm);
  ASSERT_FALSE(run.artifact.arrivals.empty());

  ReplayArtifact corrupted = run.artifact;
  corrupted.arrivals[corrupted.arrivals.size() / 2].target_output_len += 1;

  const ReplayOutcome outcome = ReplayRun(corrupted);
  ASSERT_FALSE(outcome.ok);
  ASSERT_TRUE(outcome.divergence.has_value());
}

}  // namespace
}  // namespace adaserve
