// Figure 12: mean accepted tokens per request per verification w.r.t. RPS.
//
// Expected shape: AdaServe accepts many tokens at low RPS (aggressive
// speculation) and tapers as load grows (adaptive control shrinks trees);
// vLLM-Spec(k)'s acceptance is flat in RPS because its strategy is static.
#include <iostream>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

void RunModel(const Setup& setup, const std::vector<double>& rps_grid, const BenchArgs& args,
              BenchJson& json, SweepRunner& runner) {
  std::cout << "\n" << setup.label << "\n";
  const std::vector<SystemKind> systems = {SystemKind::kAdaServe, SystemKind::kVllmSpec4,
                                           SystemKind::kVllmSpec6, SystemKind::kVllmSpec8};
  TablePrinter table({"System", "RPS", "Mean accepted tokens"});
  const std::vector<SweepCellResult> cells = RunSetupSweep(
      runner, setup, systems, GridFor(args, rps_grid),
      [&args](const Experiment& exp, double rps) {
        return exp.RealTraceStream(SweepDurationFor(args), rps, PeakMix());
      });
  for (const SweepCellResult& p : cells) {
    table.AddRow({std::string(SystemName(p.system)), Fmt(p.x, 1),
                  Fmt(p.result.metrics.mean_accepted, 2)});
    json.Add(setup.label, std::string(SystemName(p.system)), "mean_accepted", p.x,
             p.result.metrics.mean_accepted);
    AddCellWallClock(json, setup.label, p);
  }
  table.Print(std::cout);
}

int Run(const BenchArgs& args) {
  BenchJson json("fig12_acceptance");
  SweepRunner runner(args.threads);
  std::cout << "Figure 12: mean accepted tokens per request per verification "
            << "(speculation accuracy, " << runner.threads() << " threads)\n";
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
