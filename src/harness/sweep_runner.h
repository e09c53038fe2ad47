// Parallel sweep execution engine for the bench/figure harness.
//
// A sweep is a grid of (system × sweep-point) cells, each an independent
// deterministic simulation. SweepRunner fans the cells out over a
// ForkJoinTeam and reassembles results in grid order, so the output — and,
// because every cell builds its own Experiment, workload, and scheduler
// from scratch, every metric byte — is identical at any thread count.
// tests/sweep_parallel_equivalence_test.cc pins threads=1 ≡ threads=4
// with the same GoldenMetricsText machinery that pins the golden
// baselines.
//
// Thread-safety contract for cell callbacks: a cell must not touch
// mutable state shared with other cells. The helpers below enforce this
// by constructing all simulator state (Experiment, workload, scheduler)
// inside the cell task; custom cells passed to Map must do the same.
#ifndef ADASERVE_SRC_HARNESS_SWEEP_RUNNER_H_
#define ADASERVE_SRC_HARNESS_SWEEP_RUNNER_H_

#include <algorithm>
#include <chrono>
#include <exception>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "src/common/fork_join.h"
#include "src/common/stats.h"
#include "src/harness/comparisons.h"
#include "src/harness/experiment.h"
#include "src/workload/arrival_stream.h"

namespace adaserve {

// A task result annotated with the wall-clock seconds the task itself
// consumed (its own compute time, roughly thread-count independent).
template <typename T>
struct Timed {
  T value;
  double wall_clock_s = 0.0;
};

class SweepRunner {
 public:
  // threads == 0 resolves to std::thread::hardware_concurrency().
  // threads == 1 runs every task inline on the calling thread in
  // submission order — exactly the historical serial path.
  explicit SweepRunner(int threads = 0);

  int threads() const { return threads_; }

  // Wall-clock seconds spent inside Map calls so far (the figure's total
  // harness time, what BenchJson records as the "harness / total" row).
  double total_wall_clock_s() const { return total_wall_clock_s_; }

  // Runs all tasks on a team of min(threads, tasks) members, the calling
  // thread among them, and returns their results in input order
  // regardless of completion order. If a task throws, the first
  // (input-order) exception is rethrown in the caller after every task
  // has run.
  template <typename T>
  std::vector<Timed<T>> Map(const std::vector<std::function<T()>>& tasks) {
    const auto sweep_start = std::chrono::steady_clock::now();
    const int n = static_cast<int>(tasks.size());
    std::vector<std::optional<Timed<T>>> done(tasks.size());
    std::vector<std::exception_ptr> errors(tasks.size());
    {
      ForkJoinTeam team(std::min(threads_, n) - 1);
      team.Run(n, [&](int, int i) {
        const size_t at = static_cast<size_t>(i);
        try {
          const auto start = std::chrono::steady_clock::now();
          Timed<T> timed{tasks[at](), 0.0};
          timed.wall_clock_s = SecondsSince(start);
          done[at].emplace(std::move(timed));
        } catch (...) {
          errors[at] = std::current_exception();
        }
      });
    }
    for (const std::exception_ptr& error : errors) {
      if (error) {
        std::rethrow_exception(error);
      }
    }
    std::vector<Timed<T>> results;
    results.reserve(tasks.size());
    for (std::optional<Timed<T>>& result : done) {
      results.push_back(std::move(*result));
    }
    total_wall_clock_s_ += SecondsSince(sweep_start);
    return results;
  }

 private:
  static double SecondsSince(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }

  int threads_ = 1;
  double total_wall_clock_s_ = 0.0;
};

// One finished cell of a system × sweep-point grid.
struct SweepCellResult {
  SystemKind system;
  double x = 0.0;
  EngineResult result;
  double wall_clock_s = 0.0;
};

// Builds and runs one cell from scratch. Called concurrently from team
// members: everything the simulation touches must be task-local.
using SweepCellFn = std::function<EngineResult(SystemKind system, double x)>;

// Fans out the full xs × systems grid through `runner` and returns
// results x-major (for each x, every system) — the serial benches' print
// order.
std::vector<SweepCellResult> RunSystemGrid(SweepRunner& runner,
                                           const std::vector<SystemKind>& systems,
                                           const std::vector<double>& xs,
                                           const SweepCellFn& run_cell);

// Workload for one sweep point, built on the cell's own Experiment: a
// fresh stream (e.g. exp.RealTraceStream(...)), served lazily in
// O(active set) memory, or a request vector. Called concurrently; must
// only read `exp` and its captures.
using SweepWorkloadFn = std::function<WorkloadSource(const Experiment& exp, double x)>;

// The standard bench cell: a fresh Experiment(setup), a fresh workload
// from `make_workload`, and a fresh MakeScheduler(system) per cell, so
// no simulator state crosses task boundaries.
std::vector<SweepCellResult> RunSetupSweep(SweepRunner& runner, const Setup& setup,
                                           const std::vector<SystemKind>& systems,
                                           const std::vector<double>& xs,
                                           const SweepWorkloadFn& make_workload,
                                           const EngineConfig& engine = {});

// --- per-seed sharding (variance studies) ---

// One (system × x) cell fanned over N trace seeds. Per-shard metrics stay
// in seed order; the headline metrics aggregate across shards with
// RunningStat (mean/stddev), accumulated in seed order so every value —
// including the float-order-sensitive stddev — is identical at any
// thread count.
struct SeedShardCell {
  SystemKind system;
  double x = 0.0;
  std::vector<uint64_t> seeds;
  // Full metrics of each shard, seed order (same indexing as `seeds`).
  std::vector<Metrics> per_seed;
  RunningStat goodput_tps;
  RunningStat attainment_pct;
  RunningStat throughput_tps;
  // Sum of the shard tasks' own compute seconds.
  double wall_clock_s = 0.0;

  // Cross-seed error bars: Bessel-corrected sample stddev of the headline
  // metrics. Seeds are a small sample of the trace-randomness population,
  // so the population Stddev() would understate the spread.
  double GoodputErrTps() const { return goodput_tps.SampleStddev(); }
  double AttainmentErrPct() const { return attainment_pct.SampleStddev(); }
  double ThroughputErrTps() const { return throughput_tps.SampleStddev(); }
};

// Workload of one (x, seed) shard, built on the shard's own Experiment
// (a stream or a vector, as for SweepWorkloadFn). Called concurrently;
// must only read `exp` and its captures.
using SeedWorkloadFn =
    std::function<WorkloadSource(const Experiment& exp, double x, uint64_t seed)>;

// Fans the full systems × xs × seeds grid out through `runner` — every
// shard an independent task with its own Experiment, workload, and
// scheduler, exactly like RunSetupSweep cells — and reassembles per-cell
// aggregates x-major (systems inner, seeds innermost). `seeds` must be
// non-empty; with a single seed each cell's lone shard is byte-identical
// to the corresponding RunSetupSweep cell for that seed (pinned by
// tests/sweep_parallel_equivalence_test.cc).
std::vector<SeedShardCell> RunSeedShardedSweep(SweepRunner& runner, const Setup& setup,
                                               const std::vector<SystemKind>& systems,
                                               const std::vector<double>& xs,
                                               const std::vector<uint64_t>& seeds,
                                               const SeedWorkloadFn& make_workload,
                                               const EngineConfig& engine = {});

}  // namespace adaserve

#endif  // ADASERVE_SRC_HARNESS_SWEEP_RUNNER_H_
