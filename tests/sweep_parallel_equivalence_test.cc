// Parallel ≡ serial equivalence proof for the sweep execution engine.
//
// Runs a smoke-sized Fig. 8-style sweep (systems × RPS grid) serially
// (threads=1, the exact historical path) and in parallel (threads=4) and
// asserts byte-identical GoldenMetricsText per cell: fanning cells out
// over the sweep's fork-join team must not change a single metric byte,
// because each cell rebuilds its full simulator state from deterministic
// seeds. Also pins the per-cell Experiment reconstruction against the old
// shared-Experiment serial helper, a vector-fed sweep against the same
// sweep fed by owned streams, a stream-fed sweep's parallel path against
// its serial path, and a serving run whose draft trees are built on the
// fork-join team against the same run built inline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench/sweep_common.h"
#include "tests/test_util.h"

namespace adaserve {
namespace {

// Smoke-sized Fig. 8 shape: short real-shaped trace, peak mix, both ends
// of the load range.
constexpr double kDuration = 6.0;

std::vector<double> SmokeRpsGrid() { return {2.5, 3.5}; }

std::vector<SweepCellResult> RunSmokeSweep(int threads) {
  SweepRunner runner(threads);
  return RunSetupSweep(runner, GoldenSetup(), MainComparisonSet(), SmokeRpsGrid(),
                       [](const Experiment& exp, double rps) {
                         return exp.RealTraceWorkload(kDuration, rps, PeakMix());
                       });
}

TEST(SweepParallelEquivalence, Threads4ByteIdenticalToThreads1PerCell) {
  const std::vector<SweepCellResult> serial = RunSmokeSweep(1);
  const std::vector<SweepCellResult> parallel = RunSmokeSweep(4);

  ASSERT_EQ(serial.size(), MainComparisonSet().size() * SmokeRpsGrid().size());
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    // Grid order is deterministic: same cell at the same index.
    ASSERT_EQ(serial[i].system, parallel[i].system);
    ASSERT_EQ(serial[i].x, parallel[i].x);
    // The byte-identity proof, in the same canonical representation the
    // golden baselines pin.
    EXPECT_EQ(GoldenMetricsText(serial[i].system, serial[i].result.metrics),
              GoldenMetricsText(parallel[i].system, parallel[i].result.metrics))
        << "cell " << SystemName(serial[i].system) << " @ x=" << serial[i].x;
    EXPECT_EQ(serial[i].result.total_iterations, parallel[i].result.total_iterations);
    EXPECT_EQ(serial[i].result.end_time, parallel[i].result.end_time);
  }
}

TEST(SweepParallelEquivalence, WallClockIsRecordedPerCellAndInTotal) {
  SweepRunner runner(4);
  const std::vector<SweepCellResult> cells =
      RunSetupSweep(runner, GoldenSetup(), MainComparisonSet(), {3.0},
                    [](const Experiment& exp, double rps) {
                      return exp.RealTraceWorkload(kDuration, rps, PeakMix());
                    });
  EXPECT_EQ(runner.threads(), 4);
  double cell_sum = 0.0;
  for (const SweepCellResult& cell : cells) {
    EXPECT_GT(cell.wall_clock_s, 0.0);
    cell_sum += cell.wall_clock_s;
  }
  // The total covers the whole fan-out; with any contention it can exceed
  // the longest cell but never a per-cell sum of zero.
  EXPECT_GT(runner.total_wall_clock_s(), 0.0);
  EXPECT_GT(cell_sum, 0.0);
}

// The per-cell Experiment/workload reconstruction must reproduce the old
// shared-Experiment serial helper byte for byte (same setup, same seeds
// => same workload => same run).
TEST(SweepParallelEquivalence, PerCellReconstructionMatchesSharedExperimentReference) {
  const double rps = 3.0;
  const Experiment shared(GoldenSetup());
  const std::vector<Request> workload = shared.RealTraceWorkload(kDuration, rps, PeakMix());
  const std::vector<SweepPoint> reference =
      RunAllSystems(shared, workload, rps, MainComparisonSet());

  SweepRunner runner(4);
  const std::vector<SweepCellResult> cells =
      RunSetupSweep(runner, GoldenSetup(), MainComparisonSet(), {rps},
                    [](const Experiment& exp, double x) {
                      return exp.RealTraceWorkload(kDuration, x, PeakMix());
                    });

  ASSERT_EQ(reference.size(), cells.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(reference[i].system, cells[i].system);
    EXPECT_EQ(GoldenMetricsText(reference[i].system, reference[i].metrics),
              GoldenMetricsText(cells[i].system, cells[i].result.metrics));
  }
}

// A sweep fed request vectors and the same sweep fed owned streams (the
// two forms a SweepWorkloadFn may return) serve identical workloads, so
// every cell's metrics match byte for byte.
TEST(SweepParallelEquivalence, VectorWorkloadsMatchStreamWorkloads) {
  SweepRunner runner(4);
  const std::vector<SweepCellResult> from_vectors =
      RunSetupSweep(runner, GoldenSetup(), MainComparisonSet(), SmokeRpsGrid(),
                    [](const Experiment& exp, double rps) {
                      return exp.RealTraceWorkload(kDuration, rps, PeakMix());
                    });
  const std::vector<SweepCellResult> from_streams =
      RunSetupSweep(runner, GoldenSetup(), MainComparisonSet(), SmokeRpsGrid(),
                    [](const Experiment& exp, double rps) {
                      return exp.RealTraceStream(kDuration, rps, PeakMix());
                    });

  ASSERT_EQ(from_vectors.size(), MainComparisonSet().size() * SmokeRpsGrid().size());
  ASSERT_EQ(from_vectors.size(), from_streams.size());
  for (size_t i = 0; i < from_vectors.size(); ++i) {
    ASSERT_EQ(from_vectors[i].system, from_streams[i].system);
    ASSERT_EQ(from_vectors[i].x, from_streams[i].x);
    EXPECT_EQ(GoldenMetricsText(from_vectors[i].system, from_vectors[i].result.metrics),
              GoldenMetricsText(from_streams[i].system, from_streams[i].result.metrics))
        << "cell " << SystemName(from_vectors[i].system) << " @ x=" << from_vectors[i].x;
    EXPECT_EQ(from_vectors[i].result.total_iterations, from_streams[i].result.total_iterations);
  }
}

// A stream-fed sweep at one x (the shape of a multi-system comparison)
// is byte-identical at threads 1 and 4.
TEST(SweepParallelEquivalence, StreamSweepParallelMatchesSerial) {
  const GoldenConfig config;
  const SweepWorkloadFn make_stream = [&config](const Experiment& exp, double /*x*/) {
    return MakeGoldenStream(exp, GoldenScenario::kBursty, config);
  };
  EngineConfig engine;
  engine.sampling_seed = config.sampling_seed;
  engine.retire_finished = true;

  SweepRunner serial_runner(1);
  const std::vector<SweepCellResult> serial = RunSetupSweep(
      serial_runner, GoldenSetup(), MainComparisonSet(), {0.0}, make_stream, engine);
  SweepRunner parallel_runner(4);
  const std::vector<SweepCellResult> parallel = RunSetupSweep(
      parallel_runner, GoldenSetup(), MainComparisonSet(), {0.0}, make_stream, engine);

  ASSERT_EQ(serial.size(), MainComparisonSet().size());
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].system, parallel[i].system);
    EXPECT_EQ(GoldenMetricsText(serial[i].system, serial[i].result.metrics),
              GoldenMetricsText(parallel[i].system, parallel[i].result.metrics));
    EXPECT_GT(parallel[i].wall_clock_s, 0.0);
  }
}

// The speculate phase builds a tick's draft trees on the process-wide
// fork-join team when served from the main thread, and inline inside a
// cell of a multi-member sweep. Both serve the same metrics byte for byte:
// a tree reads only its own request, and sampling stays on the serving
// thread.
TEST(SweepParallelEquivalence, TeamBuiltTreesMatchInlineBuiltTrees) {
  const Experiment exp(GoldenSetup());
  const std::vector<Request> workload = exp.RealTraceWorkload(kDuration, 3.5, PeakMix());
  const auto serve = [&](SystemKind kind) {
    const std::unique_ptr<Scheduler> scheduler = MakeScheduler(kind);
    return GoldenMetricsText(kind, exp.Run(*scheduler, workload).metrics);
  };
  SweepRunner sweep(2);
  for (SystemKind kind : {SystemKind::kAdaServe, SystemKind::kVllmSpec4}) {
    const std::string on_team = serve(kind);
    // Two cells, so the sweep's team has a helper and each cell is an
    // item of a team with helpers.
    const std::function<std::string()> cell = [&] { return serve(kind); };
    for (const Timed<std::string>& in_cell : sweep.Map<std::string>({cell, cell})) {
      EXPECT_EQ(on_team, in_cell.value) << SystemName(kind);
    }
  }
}

// --- per-seed sharding ---

// Shared shapes for the seed-shard tests: a couple of systems (keeping
// the grid small — sharding multiplies cells), two x points, and the
// workload keyed on the shard's trace seed.
std::vector<SystemKind> ShardSystems() {
  return {SystemKind::kVllm, SystemKind::kAdaServe};
}

std::vector<Request> ShardWorkload(const Experiment& exp, double rps, uint64_t seed) {
  return exp.RealTraceWorkload(kDuration, rps, PeakMix(), seed);
}

// shards=1 ≡ serial: a single-seed sharded sweep must reproduce the
// unsharded RunSetupSweep cells byte for byte.
TEST(SeedShardEquivalence, SingleSeedMatchesUnshardedSweep) {
  const uint64_t seed = 42;
  const std::vector<double> xs = {2.5, 3.5};

  SweepRunner unsharded_runner(1);
  const std::vector<SweepCellResult> unsharded =
      RunSetupSweep(unsharded_runner, GoldenSetup(), ShardSystems(), xs,
                    [seed](const Experiment& exp, double rps) {
                      return ShardWorkload(exp, rps, seed);
                    });

  SweepRunner sharded_runner(1);
  const std::vector<SeedShardCell> sharded = RunSeedShardedSweep(
      sharded_runner, GoldenSetup(), ShardSystems(), xs, {seed}, ShardWorkload);

  ASSERT_EQ(sharded.size(), unsharded.size());
  for (size_t i = 0; i < sharded.size(); ++i) {
    ASSERT_EQ(sharded[i].system, unsharded[i].system);
    ASSERT_EQ(sharded[i].x, unsharded[i].x);
    ASSERT_EQ(sharded[i].per_seed.size(), 1u);
    EXPECT_EQ(GoldenMetricsText(sharded[i].system, sharded[i].per_seed[0]),
              GoldenMetricsText(unsharded[i].system, unsharded[i].result.metrics));
    // A lone shard's aggregate is that shard, exactly.
    EXPECT_EQ(sharded[i].goodput_tps.mean(), unsharded[i].result.metrics.GoodputTps());
    EXPECT_EQ(sharded[i].goodput_tps.Stddev(), 0.0);
  }
}

// Seed shards are deterministic and aggregation order is pinned to seed
// order, so any thread count yields identical shards AND identical
// aggregate floats (mean and the order-sensitive stddev alike).
TEST(SeedShardEquivalence, Threads4IdenticalToThreads1PerShardAndAggregate) {
  const std::vector<uint64_t> seeds = {7, 11, 13};
  const std::vector<double> xs = {3.0};

  SweepRunner serial_runner(1);
  const std::vector<SeedShardCell> serial = RunSeedShardedSweep(
      serial_runner, GoldenSetup(), ShardSystems(), xs, seeds, ShardWorkload);
  SweepRunner parallel_runner(4);
  const std::vector<SeedShardCell> parallel = RunSeedShardedSweep(
      parallel_runner, GoldenSetup(), ShardSystems(), xs, seeds, ShardWorkload);

  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].per_seed.size(), seeds.size());
    ASSERT_EQ(parallel[i].per_seed.size(), seeds.size());
    for (size_t s = 0; s < seeds.size(); ++s) {
      EXPECT_EQ(GoldenMetricsText(serial[i].system, serial[i].per_seed[s]),
                GoldenMetricsText(parallel[i].system, parallel[i].per_seed[s]))
          << "shard seed " << seeds[s];
    }
    EXPECT_EQ(serial[i].goodput_tps.mean(), parallel[i].goodput_tps.mean());
    EXPECT_EQ(serial[i].goodput_tps.Stddev(), parallel[i].goodput_tps.Stddev());
    EXPECT_EQ(serial[i].attainment_pct.mean(), parallel[i].attainment_pct.mean());
    EXPECT_EQ(serial[i].attainment_pct.Stddev(), parallel[i].attainment_pct.Stddev());
    EXPECT_EQ(serial[i].throughput_tps.mean(), parallel[i].throughput_tps.mean());
    EXPECT_EQ(serial[i].throughput_tps.Stddev(), parallel[i].throughput_tps.Stddev());
    // The Bessel-corrected error bars the benches report are equally
    // order-pinned.
    EXPECT_EQ(serial[i].GoodputErrTps(), parallel[i].GoodputErrTps());
    EXPECT_EQ(serial[i].AttainmentErrPct(), parallel[i].AttainmentErrPct());
    EXPECT_EQ(serial[i].ThroughputErrTps(), parallel[i].ThroughputErrTps());
  }
}

// Different trace seeds produce genuinely different realisations — the
// variance the sharding exists to measure is not silently zero.
TEST(SeedShardEquivalence, DistinctSeedsProduceVariance) {
  SweepRunner runner(4);
  const std::vector<SeedShardCell> cells = RunSeedShardedSweep(
      runner, GoldenSetup(), {SystemKind::kVllm}, {3.0}, {1, 2, 3, 4}, ShardWorkload);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].per_seed.size(), 4u);
  EXPECT_EQ(cells[0].goodput_tps.count(), 4u);
  EXPECT_GT(cells[0].goodput_tps.Stddev(), 0.0);
  // Error bars use the sample stddev, which is strictly wider than the
  // population stddev for a finite seed sample.
  EXPECT_GT(cells[0].GoodputErrTps(), cells[0].goodput_tps.Stddev());
  EXPECT_GT(cells[0].wall_clock_s, 0.0);
}

// A cell that throws fails the sweep in the caller, not a worker thread,
// after every cell has run. Of two failing cells the earlier in input
// order wins, even when the later one throws first.
TEST(SweepParallelEquivalence, CellExceptionReachesTheCaller) {
  SweepRunner runner(4);
  std::atomic<int> ran{0};
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([i, &ran]() -> int {
      ran.fetch_add(1);
      if (i == 3) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::runtime_error("cell 3 failed");
      }
      if (i == 6) {
        throw std::runtime_error("cell 6 failed");
      }
      return i;
    });
  }
  try {
    runner.Map(tasks);
    ADD_FAILURE() << "no exception reached the caller";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "cell 3 failed");
  }
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace adaserve
