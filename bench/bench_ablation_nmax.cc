// Ablation: the per-request token limit n_max in the SLO-customized phase.
//
// Without the cap, a request far behind its SLO can monopolise the budget on
// low-probability candidates (§4.3 Step 2); tiny caps starve requests that
// genuinely need several tokens.
#include <iostream>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

int Run(const BenchArgs& args) {
  SweepRunner runner(args.threads);
  std::cout << "Ablation: per-request SLO-phase token limit n_max (4.0 req/s, 60% urgent, "
            << runner.threads() << " threads)\n";
  const Setup setup = LlamaSetup();
  std::cout << setup.label << "\n\n";

  const std::vector<int> n_maxes = {1, 2, 4, 8, 16, 64, 1024};
  std::vector<std::function<EngineResult()>> tasks;
  for (int n_max : n_maxes) {
    tasks.push_back([&setup, &args, n_max] {
      const Experiment exp(setup);
      AdaServeConfig config;
      config.selection.n_max = n_max;
      AdaServeScheduler scheduler(config);
      return exp.Run(scheduler, exp.RealTraceStream(SweepDurationFor(args), 4.0, PeakMix()));
    });
  }
  const std::vector<Timed<EngineResult>> results = runner.Map(tasks);

  BenchJson json("ablation_nmax");
  TablePrinter table({"n_max", "SLO Attainment(%)", "Cat1(%)", "Goodput(tok/s)"});
  for (size_t i = 0; i < n_maxes.size(); ++i) {
    const int n_max = n_maxes[i];
    const Metrics& m = results[i].value.metrics;
    table.AddRow({n_max == 1024 ? "unbounded" : std::to_string(n_max),
                  FmtPct(m.AttainmentPct()), FmtPct(m.per_category[0].AttainmentPct()),
                  Fmt(m.GoodputTps(), 1)});
    json.Add(setup.label, "AdaServe", "attainment_pct", n_max, m.AttainmentPct());
    json.Add(setup.label, "AdaServe", "goodput_tps", n_max, m.GoodputTps());
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
