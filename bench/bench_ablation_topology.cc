// Ablation: speculation tree topology (§7 related work).
//
// Chains (vLLM-Spec), fixed-shape trees (SpecInfer/Medusa-style), and
// AdaServe's SLO-customized trees on the same multi-SLO workload. The chain
// is the static tree with branching 1 at each of its 4 levels, and every
// variant prices its draft passes with the same DraftTreeTime, so the chain
// and static-tree rows differ only in shape. Static trees were designed for
// small-batch inference: at serving batch sizes their per-request token
// cost (every level fully expanded) blows past the roofline knee and
// iteration latency explodes — the hardware-unawareness the paper (and
// Sequoia) call out. SLO-customized trees are meant to win because shape
// *and size* follow each request's A(r) and the load; in the default
// tick-native mode the chain still beats them here (the inverted headline
// ROADMAP.md tracks).
#include <functional>
#include <iostream>
#include <memory>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

int Run(const BenchArgs& args) {
  SweepRunner runner(args.threads);
  std::cout << "Ablation: speculation tree topology (4.0 req/s, mix 60/20/20, "
            << runner.threads() << " threads)\n";
  const Setup setup = LlamaSetup();
  std::cout << setup.label << "\n\n";

  // Scheduler factories, not schedulers: each cell builds its own.
  struct Variant {
    std::string label;
    std::function<std::unique_ptr<Scheduler>()> make_scheduler;
  };
  std::vector<Variant> variants;
  variants.push_back(
      {"chain k=4 (vLLM-Spec)", [] { return MakeScheduler(SystemKind::kVllmSpec4); }});
  variants.push_back({"static tree 4x1x1", [] {
                        return std::make_unique<StaticTreeSpecScheduler>(
                            StaticTreeConfig{.branching = {4, 1, 1}});
                      }});
  variants.push_back({"static tree 3x2", [] {
                        return std::make_unique<StaticTreeSpecScheduler>(
                            StaticTreeConfig{.branching = {3, 2}});
                      }});
  variants.push_back({"static tree 2x2x1", [] {
                        return std::make_unique<StaticTreeSpecScheduler>(
                            StaticTreeConfig{.branching = {2, 2, 1}});
                      }});
  variants.push_back(
      {"SLO-customized (AdaServe)", [] { return std::make_unique<AdaServeScheduler>(); }});

  std::vector<std::function<EngineResult()>> tasks;
  for (const Variant& v : variants) {
    tasks.push_back([&setup, &args, &v] {
      const Experiment exp(setup);
      auto scheduler = v.make_scheduler();
      return exp.Run(*scheduler, exp.RealTraceStream(SweepDurationFor(args), 4.0, PeakMix()));
    });
  }
  const std::vector<Timed<EngineResult>> results = runner.Map(tasks);

  BenchJson json("ablation_topology");
  TablePrinter table({"Topology", "SLO Attainment(%)", "Cat1(%)", "Goodput(tok/s)", "Mean acc"});
  for (size_t i = 0; i < variants.size(); ++i) {
    const Metrics& m = results[i].value.metrics;
    table.AddRow({variants[i].label, FmtPct(m.AttainmentPct()),
                  FmtPct(m.per_category[0].AttainmentPct()), Fmt(m.GoodputTps(), 1),
                  Fmt(m.mean_accepted, 2)});
    json.Add(setup.label, variants[i].label, "attainment_pct", 0.0, m.AttainmentPct());
    json.Add(setup.label, variants[i].label, "goodput_tps", 0.0, m.GoodputTps());
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
