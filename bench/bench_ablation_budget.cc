// Ablation: the roofline-derived verification token budget B.
//
// Sweeps multiples of the derived budget. Under-provisioned budgets starve
// the SLO phase; over-provisioned budgets push iterations past the roofline
// knee so every token costs compute time. The derived B should sit near the
// attainment/goodput sweet spot — the paper's "hardware-aware" claim.
#include <iostream>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

int Run(const BenchArgs& args) {
  SweepRunner runner(args.threads);
  std::cout << "Ablation: verification token budget B vs the roofline-derived value ("
            << runner.threads() << " threads)\n";
  const Setup setup = LlamaSetup();
  const int derived = DeriveTokenBudget(Experiment(setup).target_latency());
  std::cout << setup.label << ", derived B = " << derived << " (4.0 req/s)\n\n";

  const std::vector<double> mults = {0.25, 0.5, 1.0, 2.0, 4.0};
  std::vector<std::function<EngineResult()>> tasks;
  for (double mult : mults) {
    const int budget = std::max(8, static_cast<int>(derived * mult));
    tasks.push_back([&setup, &args, budget] {
      const Experiment exp(setup);
      AdaServeScheduler scheduler;
      return exp.Run(scheduler, exp.RealTraceStream(SweepDurationFor(args), 4.0, PeakMix()), {},
                     budget);
    });
  }
  const std::vector<Timed<EngineResult>> results = runner.Map(tasks);

  BenchJson json("ablation_budget");
  TablePrinter table({"B", "x derived", "SLO Attainment(%)", "Goodput(tok/s)", "Mean acc"});
  for (size_t i = 0; i < mults.size(); ++i) {
    const double mult = mults[i];
    const int budget = std::max(8, static_cast<int>(derived * mult));
    const Metrics& m = results[i].value.metrics;
    table.AddRow({std::to_string(budget), Fmt(mult, 2), FmtPct(m.AttainmentPct()),
                  Fmt(m.GoodputTps(), 1), Fmt(m.mean_accepted, 2)});
    json.Add(setup.label, "AdaServe", "attainment_pct", mult, m.AttainmentPct());
    json.Add(setup.label, "AdaServe", "goodput_tps", mult, m.GoodputTps());
  }
  table.Print(std::cout);
  json.SetRunInfo(runner.threads(), runner.total_wall_clock_s());
  return FinishBench(args, json);
}

}  // namespace
}  // namespace adaserve

int main(int argc, char** argv) {
  return adaserve::Run(adaserve::ParseBenchArgs(argc, argv));
}
