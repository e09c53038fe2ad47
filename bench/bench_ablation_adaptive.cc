// Ablation: adaptive (d, w) control (Eqs. 8-9) vs fixed configurations.
//
// The adaptive policy should match or beat every fixed (d, w) point across
// load levels, because no single fixed configuration is right at both ends.
#include <iostream>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

int Run(const BenchArgs& args) {
  SweepRunner runner(args.threads);
  std::cout << "Ablation: adaptive speculation control vs fixed (d, w) (" << runner.threads()
            << " threads)\n";
  const Setup setup = LlamaSetup();
  std::cout << setup.label << ", mix 60/20/20\n\n";

  struct Variant {
    std::string label;
    AdaServeConfig config;
  };
  std::vector<Variant> variants;
  variants.push_back({"adaptive (Eqs. 8-9)", AdaServeConfig{}});
  for (int d : {2, 4, 8}) {
    for (int w : {1, 2, 4}) {
      AdaServeConfig config;
      config.adaptive_control = false;
      config.fixed_beam = {.depth = d, .width = w};
      variants.push_back({"fixed d=" + std::to_string(d) + " w=" + std::to_string(w), config});
    }
  }
  const std::vector<double> rps_grid = GridFor(args, {2.6, 3.6, 4.6});

  // One cell per (rps, variant), each building its own simulator state.
  std::vector<std::function<EngineResult()>> tasks;
  for (double rps : rps_grid) {
    for (const Variant& v : variants) {
      const AdaServeConfig config = v.config;
      tasks.push_back([&setup, &args, config, rps] {
        const Experiment exp(setup);
        AdaServeScheduler scheduler(config);
        return exp.Run(scheduler, exp.RealTraceStream(SweepDurationFor(args), rps, PeakMix()));
      });
    }
  }
  const std::vector<Timed<EngineResult>> results = runner.Map(tasks);

  BenchJson json("ablation_adaptive");
  TablePrinter table({"Variant", "RPS", "SLO Attainment(%)", "Goodput(tok/s)", "Mean acc"});
  size_t i = 0;
  for (double rps : rps_grid) {
    for (const Variant& v : variants) {
      const Metrics& m = results[i].value.metrics;
      table.AddRow({v.label, Fmt(rps, 1), FmtPct(m.AttainmentPct()), Fmt(m.GoodputTps(), 1),
                    Fmt(m.mean_accepted, 2)});
      json.Add(setup.label, v.label, "attainment_pct", rps, m.AttainmentPct());
      json.Add(setup.label, v.label, "goodput_tps", rps, m.GoodputTps());
      json.Add(setup.label, v.label, "wall_clock_s", rps, results[i].wall_clock_s);
      ++i;
    }
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
