// Shared sweep machinery for the end-to-end comparison benches
// (Figs. 8, 9, 12 share the RPS sweep; Figs. 10, 11 fix RPS and vary one
// workload knob). The sweep benches fan their (system × point) grids out
// over SweepRunner (src/harness/sweep_runner.h); --threads controls the
// worker count and --threads 1 reproduces the historical serial path
// exactly (metrics are byte-identical at any thread count — pinned by
// tests/sweep_parallel_equivalence_test.cc).
#ifndef ADASERVE_BENCH_SWEEP_COMMON_H_
#define ADASERVE_BENCH_SWEEP_COMMON_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/adaserve.h"

namespace adaserve {

// Trace length used by the sweep benches. Long enough for queueing dynamics
// to dominate; short enough that the full bench suite runs in minutes.
inline constexpr double kSweepDuration = 40.0;

// RPS grids per model (paper Figs. 8-9 x-axes, coarsened to 0.4 steps).
inline std::vector<double> LlamaRpsGrid() { return {2.6, 3.0, 3.4, 3.8, 4.2, 4.6, 5.0}; }
inline std::vector<double> QwenRpsGrid() { return {2.4, 2.8, 3.2, 3.6, 4.0}; }

// The peak-load category mix of the end-to-end comparison (60% Cat 1).
inline WorkloadConfig PeakMix() { return WorkloadConfig{.mix = {0.6, 0.2, 0.2}}; }

struct SweepPoint {
  SystemKind system;
  double x = 0.0;  // the swept knob (RPS, urgent share, SLO scale)
  Metrics metrics;
};

// Serial reference: runs every system in `systems` over `workload` under
// `exp`, sharing one Experiment and one workload. The benches now sweep
// through SweepRunner instead; this stays as the one-Experiment oracle the
// parallel-equivalence test compares against.
inline std::vector<SweepPoint> RunAllSystems(const Experiment& exp,
                                             const std::vector<Request>& workload, double x,
                                             const std::vector<SystemKind>& systems) {
  std::vector<SweepPoint> points;
  points.reserve(systems.size());
  for (SystemKind kind : systems) {
    auto scheduler = MakeScheduler(kind);
    const EngineResult result = exp.Run(*scheduler, workload);
    points.push_back({kind, x, result.metrics});
  }
  return points;
}

// --- CI perf tracking: machine-readable bench output ---

// Shared flags of every bench_fig*/bench_table* binary.
struct BenchArgs {
  // --json <path> (or --json=<path>): additionally emit the bench's key
  // series as a flat JSON document for the CI perf job.
  std::string json_path;
  // --smoke: CI-sized sweep — short trace, endpoint-only grids — so the
  // perf job finishes in unit-test time. Baselines under bench/baselines/
  // are recorded in this mode.
  bool smoke = false;
  // --threads N (or --threads=N): sweep worker count. 0 (default) resolves
  // to hardware_concurrency; 1 is the exact serial path.
  int threads = 0;
  // --seeds N (or --seeds=N): benches that support variance studies rerun
  // their sweep over N trace seeds and emit mean / sample-stddev error-bar
  // rows (RunSeedShardedSweep). 1 (default) skips the error-bar pass.
  int seeds = 1;
  // --admission: benches that support it (bench_fig01_motivation) run the
  // admission-priority ablation — FIFO vs SLO-urgent recompute eviction vs
  // preemptive pause/resume under a tight KV cap — instead of their
  // default study.
  bool admission = false;
};

inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--admission") {
      args.admission = true;
    } else if (arg == "--json" && i + 1 < argc) {
      args.json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json_path = arg.substr(7);
    } else if (arg == "--threads" && i + 1 < argc) {
      args.threads = std::atoi(argv[++i]);
    } else if (arg.rfind("--threads=", 0) == 0) {
      args.threads = std::atoi(arg.c_str() + 10);
    } else if (arg == "--seeds" && i + 1 < argc) {
      args.seeds = std::atoi(argv[++i]);
    } else if (arg.rfind("--seeds=", 0) == 0) {
      args.seeds = std::atoi(arg.c_str() + 8);
    }
  }
  if (args.threads < 0) {
    args.threads = 0;
  }
  if (args.seeds < 1) {
    args.seeds = 1;
  }
  return args;
}

// Trace length honoring --smoke.
inline double SweepDurationFor(const BenchArgs& args) { return args.smoke ? 10.0 : kSweepDuration; }

// Sweep grid honoring --smoke: endpoints only, so the perf job still sees
// both the easy and the saturated end of the curve.
inline std::vector<double> GridFor(const BenchArgs& args, std::vector<double> grid) {
  if (!args.smoke || grid.size() <= 2) {
    return grid;
  }
  return {grid.front(), grid.back()};
}

// Collects (model, system, metric, x) -> value rows and writes them as one
// flat JSON document. The format is deliberately minimal — an object with
// a "bench" name and a "rows" array of flat objects — so bench/perf_diff.cc
// can parse it without a JSON library.
class BenchJson {
 public:
  explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

  void Add(const std::string& model, const std::string& system, const std::string& metric,
           double x, double value) {
    rows_.push_back(Row{model, system, metric, x, value});
  }

  // Records the sweep's execution shape: worker count as a top-level
  // field, total harness wall clock both as a top-level field and as a
  // "harness / total / wall_clock_s" row so perf_diff can gate it (the
  // per-point rows added by the benches track individual cells).
  void SetRunInfo(int threads, double total_wall_clock_s) {
    threads_ = threads;
    total_wall_clock_s_ = total_wall_clock_s;
    Add("harness", "total", "wall_clock_s", 0.0, total_wall_clock_s);
  }

  std::string ToString() const {
    std::ostringstream os;
    os << "{\n  \"bench\": \"" << bench_ << "\",\n";
    if (threads_ > 0) {
      os << "  \"threads\": " << threads_ << ",\n";
      os << "  \"wall_clock_s\": " << FormatFixed(total_wall_clock_s_, 6) << ",\n";
    }
    os << "  \"rows\": [\n";
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      os << "    {\"model\": \"" << r.model << "\", \"system\": \"" << r.system
         << "\", \"metric\": \"" << r.metric << "\", \"x\": " << FormatFixed(r.x, 6)
         << ", \"value\": " << FormatFixed(r.value, 6) << "}" << (i + 1 < rows_.size() ? "," : "")
         << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
  }

  bool WriteTo(const std::string& path, std::string* error) const {
    return WriteTextFile(path, ToString(), error);
  }

 private:
  struct Row {
    std::string model;
    std::string system;
    std::string metric;
    double x;
    double value;
  };

  std::string bench_;
  int threads_ = 0;
  double total_wall_clock_s_ = 0.0;
  std::vector<Row> rows_;
};

// Adds the per-point wall-clock row of one finished sweep cell.
inline void AddCellWallClock(BenchJson& json, const std::string& model,
                             const SweepCellResult& cell) {
  json.Add(model, std::string(SystemName(cell.system)), "wall_clock_s", cell.x,
           cell.wall_clock_s);
}

// Writes the JSON document when --json was given; exits non-zero on I/O
// failure so CI never silently gates on a stale file.
inline int FinishBench(const BenchArgs& args, const BenchJson& json) {
  if (args.json_path.empty()) {
    return 0;
  }
  std::string error;
  if (!json.WriteTo(args.json_path, &error)) {
    std::cerr << "error: could not write " << args.json_path << ": " << error << "\n";
    return 1;
  }
  std::cout << "\nwrote " << args.json_path << "\n";
  return 0;
}

}  // namespace adaserve

#endif  // ADASERVE_BENCH_SWEEP_COMMON_H_
