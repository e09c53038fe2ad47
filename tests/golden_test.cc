// Golden-metrics regression test: every cell of AllGoldenCells() — the
// MainComparisonSet systems across the real-trace/bursty/diurnal corpus
// (both serving modes) and the stress-scenario corpus (flash crowd,
// tenant flood, long-prompt poisoning, correlated bursts; tick-native),
// plus VTC under the tenant flood — runs its canonical fixed-seed
// workload, and its key metrics must byte-match the checked-in baseline
// under tests/golden/.
//
// Regenerate baselines after an intentional behavior change with:
//   ./golden_test --update_golden
// Regeneration fans every cell out over a SweepRunner; the test pass that
// follows recomputes each cell serially and byte-compares it against the
// parallel-written file, so every --update_golden run doubles as a
// parallel ≡ serial regeneration proof. After regenerating, any
// tests/golden/*.txt file that no longer corresponds to a cell is an
// orphan: --update_golden lists them and exits nonzero instead of leaving
// them behind, and the always-on NoOrphanBaselines test enforces the same
// invariant on every run.
//
// On a baseline mismatch the failing cell is re-run under a RunRecorder
// and its replay artifact is dumped to $ADASERVE_REPLAY_DUMP_DIR (default
// ./replay_artifacts), so one bad cell can be re-executed byte-identically
// offline (src/harness/replay.h) without re-running the sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/harness/golden.h"
#include "src/harness/replay.h"
#include "src/harness/sweep_runner.h"

#ifndef ADASERVE_GOLDEN_DIR
#define ADASERVE_GOLDEN_DIR "tests/golden"
#endif

namespace adaserve {
namespace {

std::string GoldenPath(const GoldenCell& cell) {
  return std::string(ADASERVE_GOLDEN_DIR) + "/" + cell.Filename();
}

// tests/golden/*.txt files that correspond to no generated cell —
// leftovers of a renamed or removed cell. Sorted for stable output.
std::vector<std::string> OrphanBaselines() {
  std::set<std::string> expected;
  for (const GoldenCell& cell : AllGoldenCells()) {
    expected.insert(cell.Filename());
  }
  std::vector<std::string> orphans;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(ADASERVE_GOLDEN_DIR, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".txt") {
      continue;
    }
    const std::string name = entry.path().filename().string();
    if (expected.find(name) == expected.end()) {
      orphans.push_back(name);
    }
  }
  std::sort(orphans.begin(), orphans.end());
  return orphans;
}

// Regenerates the full corpus — every AllGoldenCells() cell — fanned out
// over a SweepRunner. Cells share the (immutable) Experiment but build
// their own scheduler, engine, and stream, the same contract
// RunComparison relies on. Returns false if any file write fails.
bool RegenerateAllGoldens(const Experiment& exp, int threads) {
  struct Written {
    std::string path;
    std::string text;
  };
  std::vector<std::function<Written()>> tasks;
  for (const GoldenCell& cell : AllGoldenCells()) {
    tasks.push_back([&exp, cell] {
      const EngineResult result = RunGoldenSystem(exp, cell.kind, {}, cell.scenario, cell.mode);
      return Written{GoldenPath(cell), GoldenMetricsText(cell.kind, result.metrics)};
    });
  }
  SweepRunner runner(threads);
  bool ok = true;
  for (const Timed<Written>& cell : runner.Map(tasks)) {
    if (!WriteGoldenFile(cell.value.path, cell.value.text)) {
      ADASERVE_LOG(Error) << "cannot write " << cell.value.path;
      ok = false;
    }
  }
  return ok;
}

// Re-runs a failing cell under a RunRecorder and dumps its replay
// artifact for offline debugging (CI uploads the directory on failure).
void DumpReplayArtifact(const Experiment& exp, const GoldenCell& cell) {
  const char* env = std::getenv("ADASERVE_REPLAY_DUMP_DIR");
  const std::string dir = env != nullptr && *env != '\0' ? env : "replay_artifacts";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const RecordedRun run = RecordGoldenRun(exp, cell.kind, {}, cell.scenario, cell.mode);
  const std::string path = dir + "/" + cell.Filename() + ".replay";
  std::string error;
  if (WriteReplayArtifact(path, run.artifact, &error)) {
    ADASERVE_LOG(Error) << "replay artifact of failing cell dumped to " << path
                        << " (re-execute with ReplayRun)";
  } else {
    ADASERVE_LOG(Error) << "could not dump replay artifact: " << error;
  }
}

void CheckAgainstBaseline(const Experiment& exp, const GoldenCell& cell) {
  const EngineResult result = RunGoldenSystem(exp, cell.kind, {}, cell.scenario, cell.mode);
  ASSERT_GT(result.metrics.finished, 0) << SystemName(cell.kind) << " finished nothing";
  const std::string actual = GoldenMetricsText(cell.kind, result.metrics);
  const std::string path = GoldenPath(cell);

  std::string expected;
  ASSERT_TRUE(ReadGoldenFile(path, &expected))
      << "missing baseline " << path << "; run `golden_test --update_golden` to create it";
  EXPECT_EQ(expected, actual)
      << "golden metrics changed for " << SystemName(cell.kind)
      << "; if intentional, regenerate with `golden_test --update_golden`";
  if (expected != actual) {
    DumpReplayArtifact(exp, cell);
  }
}

class GoldenTest : public testing::TestWithParam<GoldenCell> {
 protected:
  // One experiment shared across all parameterized cases: building the
  // synthetic LM pair dominates setup cost.
  static void SetUpTestSuite() { exp_ = new Experiment(GoldenSetup()); }
  static void TearDownTestSuite() {
    delete exp_;
    exp_ = nullptr;
  }
  static Experiment* exp_;
};

Experiment* GoldenTest::exp_ = nullptr;

TEST_P(GoldenTest, MetricsMatchBaseline) { CheckAgainstBaseline(*exp_, GetParam()); }

std::string ParamName(const testing::TestParamInfo<GoldenCell>& info) {
  std::string name = info.param.Filename();
  name.resize(name.size() - 4);  // strip ".txt"
  return name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenTest, testing::ValuesIn(AllGoldenCells()), ParamName);

// Every checked-in baseline must correspond to a generated cell; a stale
// file (from a renamed scenario or dropped system) would otherwise sit in
// the corpus forever pretending to pin something.
TEST(GoldenCorpusTest, NoOrphanBaselines) {
  const std::vector<std::string> orphans = OrphanBaselines();
  EXPECT_TRUE(orphans.empty()) << [&orphans] {
    std::string msg = "stale baselines no cell generates (delete them):";
    for (const std::string& orphan : orphans) {
      msg += "\n  tests/golden/" + orphan;
    }
    return msg;
  }();
}

// Always-on half of the parallel-regeneration guarantee: recomputing the
// kRealTrace corpus (both modes) through a 4-thread SweepRunner must
// byte-match the checked-in baselines, which the parameterized cases above
// prove equal to serial recomputation. Streaming scenarios are covered by
// the --update_golden flow, which writes in parallel and verifies serially.
TEST(GoldenRegenerationTest, ParallelRecomputationMatchesBaselines) {
  const Experiment exp(GoldenSetup());
  struct Cell {
    GoldenCell cell;
    std::string text;
  };
  std::vector<GoldenCell> cells;
  for (SystemKind kind : MainComparisonSet()) {
    cells.push_back({kind, GoldenScenario::kRealTrace, GoldenMode::kTickNative});
    cells.push_back({kind, GoldenScenario::kRealTrace, GoldenMode::kBoundary});
  }
  std::vector<std::function<Cell()>> tasks;
  for (const GoldenCell& cell : cells) {
    tasks.push_back([&exp, cell] {
      const EngineResult result = RunGoldenSystem(exp, cell.kind, {}, cell.scenario, cell.mode);
      return Cell{cell, GoldenMetricsText(cell.kind, result.metrics)};
    });
  }
  SweepRunner runner(4);
  for (const Timed<Cell>& cell : runner.Map(tasks)) {
    std::string expected;
    ASSERT_TRUE(ReadGoldenFile(GoldenPath(cell.value.cell), &expected))
        << "missing baseline " << GoldenPath(cell.value.cell);
    EXPECT_EQ(expected, cell.value.text)
        << "parallel recomputation diverged for " << SystemName(cell.value.cell.kind);
  }
}

}  // namespace
}  // namespace adaserve

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  bool update_golden = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update_golden") == 0) {
      update_golden = true;
    }
  }
  if (update_golden) {
    // Parallel rewrite of the whole corpus, then fall through to the
    // normal (serial) test pass: every case recomputes its metrics and
    // byte-compares them against the file just written in parallel.
    const adaserve::Experiment exp(adaserve::GoldenSetup());
    if (!adaserve::RegenerateAllGoldens(exp, /*threads=*/0)) {
      return 1;
    }
    // Fail loudly on stale baselines instead of leaving orphans behind.
    const std::vector<std::string> orphans = adaserve::OrphanBaselines();
    if (!orphans.empty()) {
      ADASERVE_LOG(Error) << "--update_golden regenerated every cell, but these baselines "
                             "correspond to no cell (delete them):";
      for (const std::string& orphan : orphans) {
        ADASERVE_LOG(Error) << "  tests/golden/" << orphan;
      }
      return 1;
    }
  }
  return RUN_ALL_TESTS();
}
