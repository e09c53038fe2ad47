// Figure 9: goodput (tokens/s of SLO-attaining requests) w.r.t. RPS.
#include <iostream>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

// Variance study (--seeds N): reruns the sweep over N trace seeds and
// emits mean / Bessel-corrected error-bar rows per cell. Extra rows only —
// the headline series above stays byte-identical, so perf_diff baselines
// recorded without --seeds still gate.
void RunSeedErrorBars(const Setup& setup, const std::vector<double>& rps_grid,
                      const BenchArgs& args, BenchJson& json, SweepRunner& runner) {
  std::vector<uint64_t> seeds;
  for (int s = 0; s < args.seeds; ++s) {
    seeds.push_back(42 + static_cast<uint64_t>(s));
  }
  std::cout << "\n" << setup.label << " (" << args.seeds << "-seed error bars)\n";
  TablePrinter table({"System", "RPS", "Goodput(tok/s)", "+/-", "Attainment(%)", "+/-"});
  const std::vector<SeedShardCell> cells = RunSeedShardedSweep(
      runner, setup, MainComparisonSet(), GridFor(args, rps_grid), seeds,
      [&args](const Experiment& exp, double rps, uint64_t seed) {
        return exp.RealTraceStream(SweepDurationFor(args), rps, PeakMix(), seed);
      });
  for (const SeedShardCell& c : cells) {
    const std::string system(SystemName(c.system));
    table.AddRow({system, Fmt(c.x, 1), Fmt(c.goodput_tps.mean(), 1), Fmt(c.GoodputErrTps(), 1),
                  FmtPct(c.attainment_pct.mean()), Fmt(c.AttainmentErrPct(), 1)});
    json.Add(setup.label, system, "goodput_mean_tps", c.x, c.goodput_tps.mean());
    json.Add(setup.label, system, "goodput_err_tps", c.x, c.GoodputErrTps());
    json.Add(setup.label, system, "attainment_err_pct", c.x, c.AttainmentErrPct());
  }
  table.Print(std::cout);
}

void RunModel(const Setup& setup, const std::vector<double>& rps_grid, const BenchArgs& args,
              BenchJson& json, SweepRunner& runner) {
  std::cout << "\n" << setup.label << "\n";
  TablePrinter table({"System", "RPS", "Goodput(tok/s)", "Throughput(tok/s)"});
  // Lazy trace consumed inline: the cell never materializes its trace.
  const std::vector<SweepCellResult> cells = RunSetupSweep(
      runner, setup, MainComparisonSet(), GridFor(args, rps_grid),
      [&args](const Experiment& exp, double rps) {
        return exp.RealTraceStream(SweepDurationFor(args), rps, PeakMix());
      });
  for (const SweepCellResult& p : cells) {
    const Metrics& m = p.result.metrics;
    table.AddRow({std::string(SystemName(p.system)), Fmt(p.x, 1), Fmt(m.GoodputTps(), 1),
                  Fmt(m.ThroughputTps(), 1)});
    const std::string system(SystemName(p.system));
    json.Add(setup.label, system, "goodput_tps", p.x, m.GoodputTps());
    json.Add(setup.label, system, "throughput_tps", p.x, m.ThroughputTps());
    AddCellWallClock(json, setup.label, p);
  }
  table.Print(std::cout);
  if (args.seeds > 1) {
    RunSeedErrorBars(setup, rps_grid, args, json, runner);
  }
}

int Run(const BenchArgs& args) {
  BenchJson json("fig09_goodput_vs_rps");
  SweepRunner runner(args.threads);
  std::cout << "Figure 9: goodput w.r.t. RPS (mix 60/20/20, real-shaped trace, "
            << runner.threads() << " threads)\n";
  RunModel(LlamaSetup(), LlamaRpsGrid(), args, json, runner);
  RunModel(QwenSetup(), QwenRpsGrid(), args, json, runner);
  json.SetRunInfo(runner.threads(), runner.total_wall_clock_s());
  return FinishBench(args, json);
}

}  // namespace
}  // namespace adaserve

int main(int argc, char** argv) {
  return adaserve::Run(adaserve::ParseBenchArgs(argc, argv));
}
