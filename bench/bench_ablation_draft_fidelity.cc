// Ablation: draft-model fidelity (quality of the logit approximation).
//
// The paper's Challenge 1 rests on draft logits approximating target
// acceptance probabilities. Sweeping the mixture fidelity alpha shows how
// acceptance, attainment and goodput degrade as the draft gets worse — and
// that AdaServe fails gracefully (it falls back toward one token per
// iteration, like continuous batching, rather than collapsing).
#include <iostream>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

int Run(const BenchArgs& args) {
  SweepRunner runner(args.threads);
  std::cout << "Ablation: draft model fidelity alpha (4.0 req/s, mix 60/20/20, "
            << runner.threads() << " threads)\n";
  const Setup base_setup = LlamaSetup();
  std::cout << base_setup.label << "\n\n";

  const std::vector<double> alphas = {1.0, 0.9, 0.8, 0.6, 0.4, 0.2};
  std::vector<std::function<EngineResult()>> tasks;
  for (double alpha : alphas) {
    tasks.push_back([&base_setup, &args, alpha] {
      Setup setup = base_setup;
      setup.draft_config.fidelity = alpha;
      const Experiment exp(setup);
      AdaServeScheduler scheduler;
      return exp.Run(scheduler, exp.RealTraceStream(SweepDurationFor(args), 4.0, PeakMix()));
    });
  }
  const std::vector<Timed<EngineResult>> results = runner.Map(tasks);

  BenchJson json("ablation_draft_fidelity");
  TablePrinter table({"alpha", "Mean acc", "SLO Attainment(%)", "Cat1(%)", "Goodput(tok/s)"});
  for (size_t i = 0; i < alphas.size(); ++i) {
    const Metrics& m = results[i].value.metrics;
    table.AddRow({Fmt(alphas[i], 1), Fmt(m.mean_accepted, 2), FmtPct(m.AttainmentPct()),
                  FmtPct(m.per_category[0].AttainmentPct()), Fmt(m.GoodputTps(), 1)});
    json.Add(base_setup.label, "AdaServe", "attainment_pct", alphas[i], m.AttainmentPct());
    json.Add(base_setup.label, "AdaServe", "mean_accepted", alphas[i], m.mean_accepted);
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
