#include "src/harness/sweep_runner.h"

#include <thread>

#include "src/common/logging.h"

namespace adaserve {

SweepRunner::SweepRunner(int threads) {
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads_ = hw > 0 ? static_cast<int>(hw) : 1;
  } else {
    threads_ = threads;
  }
}

std::vector<SweepCellResult> RunSystemGrid(SweepRunner& runner,
                                           const std::vector<SystemKind>& systems,
                                           const std::vector<double>& xs,
                                           const SweepCellFn& run_cell) {
  ADASERVE_CHECK(run_cell != nullptr) << "RunSystemGrid needs a cell runner";
  std::vector<std::function<EngineResult()>> tasks;
  tasks.reserve(xs.size() * systems.size());
  for (double x : xs) {
    for (SystemKind system : systems) {
      tasks.push_back([&run_cell, system, x] { return run_cell(system, x); });
    }
  }
  std::vector<Timed<EngineResult>> timed = runner.Map(tasks);

  std::vector<SweepCellResult> cells;
  cells.reserve(timed.size());
  size_t i = 0;
  for (double x : xs) {
    for (SystemKind system : systems) {
      cells.push_back({system, x, std::move(timed[i].value), timed[i].wall_clock_s});
      ++i;
    }
  }
  return cells;
}

std::vector<SweepCellResult> RunSetupSweep(SweepRunner& runner, const Setup& setup,
                                           const std::vector<SystemKind>& systems,
                                           const std::vector<double>& xs,
                                           const SweepWorkloadFn& make_workload,
                                           const EngineConfig& engine) {
  ADASERVE_CHECK(make_workload != nullptr) << "RunSetupSweep needs a workload factory";
  return RunSystemGrid(runner, systems, xs,
                       [&setup, &make_workload, &engine](SystemKind system, double x) {
                         const Experiment exp(setup);
                         auto scheduler = MakeScheduler(system);
                         return exp.Run(*scheduler, make_workload(exp, x), engine);
                       });
}

std::vector<SeedShardCell> RunSeedShardedSweep(SweepRunner& runner, const Setup& setup,
                                               const std::vector<SystemKind>& systems,
                                               const std::vector<double>& xs,
                                               const std::vector<uint64_t>& seeds,
                                               const SeedWorkloadFn& make_workload,
                                               const EngineConfig& engine) {
  ADASERVE_CHECK(make_workload != nullptr) << "RunSeedShardedSweep needs a workload factory";
  ADASERVE_CHECK(!seeds.empty()) << "RunSeedShardedSweep needs at least one seed";
  // One task per (x, system, seed) shard, x-major like RunSystemGrid so
  // sharded and unsharded sweeps submit cells in the same order.
  std::vector<std::function<Metrics()>> tasks;
  tasks.reserve(xs.size() * systems.size() * seeds.size());
  for (double x : xs) {
    for (SystemKind system : systems) {
      for (uint64_t seed : seeds) {
        tasks.push_back([&setup, &make_workload, &engine, system, x, seed] {
          const Experiment exp(setup);
          auto scheduler = MakeScheduler(system);
          return exp.Run(*scheduler, make_workload(exp, x, seed), engine).metrics;
        });
      }
    }
  }
  std::vector<Timed<Metrics>> timed = runner.Map(tasks);

  std::vector<SeedShardCell> cells;
  cells.reserve(xs.size() * systems.size());
  size_t i = 0;
  for (double x : xs) {
    for (SystemKind system : systems) {
      SeedShardCell cell;
      cell.system = system;
      cell.x = x;
      cell.seeds = seeds;
      cell.per_seed.reserve(seeds.size());
      // Aggregation runs here, in seed order, regardless of which worker
      // finished first — thread count cannot perturb the accumulators.
      for (size_t s = 0; s < seeds.size(); ++s, ++i) {
        const Metrics& m = timed[i].value;
        cell.goodput_tps.Add(m.GoodputTps());
        cell.attainment_pct.Add(m.AttainmentPct());
        cell.throughput_tps.Add(m.ThroughputTps());
        cell.wall_clock_s += timed[i].wall_clock_s;
        cell.per_seed.push_back(std::move(timed[i].value));
      }
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

}  // namespace adaserve
