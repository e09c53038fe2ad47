// Figure 10: SLO attainment and goodput w.r.t. the proportion of urgent
// (Cat 1) requests, at a fixed 4.0 req/s.
//
// Expected shape: continuous-batching systems collapse as the urgent share
// grows; SD-based systems hold steady or improve (fewer long Cat-3 prompts
// means less prefill pressure).
#include <iostream>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

void RunModel(const Setup& setup, const BenchArgs& args, BenchJson& json, SweepRunner& runner) {
  std::cout << "\n" << setup.label << " (4.0 req/s)\n";
  TablePrinter table(
      {"System", "Urgent(%)", "SLO Attainment(%)", "Goodput(tok/s)", "Cat1(%)"});
  const std::vector<SweepCellResult> cells = RunSetupSweep(
      runner, setup, MainComparisonSet(), GridFor(args, {0.3, 0.5, 0.7, 0.9}),
      [&args](const Experiment& exp, double urgent) {
        const double rest = (1.0 - urgent) / 2.0;
        return exp.RealTraceStream(SweepDurationFor(args), 4.0,
                                   WorkloadConfig{.mix = {urgent, rest, rest}});
      });
  for (const SweepCellResult& p : cells) {
    const Metrics& m = p.result.metrics;
    table.AddRow({std::string(SystemName(p.system)), Fmt(p.x * 100.0, 0),
                  FmtPct(m.AttainmentPct()), Fmt(m.GoodputTps(), 1),
                  FmtPct(m.per_category[0].AttainmentPct())});
    const std::string system(SystemName(p.system));
    json.Add(setup.label, system, "attainment_pct", p.x, m.AttainmentPct());
    json.Add(setup.label, system, "goodput_tps", p.x, m.GoodputTps());
    AddCellWallClock(json, setup.label, p);
  }
  table.Print(std::cout);
}

int Run(const BenchArgs& args) {
  BenchJson json("fig10_urgent_share");
  SweepRunner runner(args.threads);
  std::cout << "Figure 10: SLO attainment and goodput w.r.t. urgent request proportion ("
            << runner.threads() << " threads)\n";
  RunModel(LlamaSetup(), args, json, runner);
  RunModel(QwenSetup(), args, json, runner);
  json.SetRunInfo(runner.threads(), runner.total_wall_clock_s());
  return FinishBench(args, json);
}

}  // namespace
}  // namespace adaserve

int main(int argc, char** argv) {
  return adaserve::Run(adaserve::ParseBenchArgs(argc, argv));
}
