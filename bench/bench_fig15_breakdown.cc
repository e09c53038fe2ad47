// Figure 15: latency breakdown of SLO-customized speculative decoding.
//
// Speculation and verification are GPU work; selection (scheduling) runs on
// the CPU. The paper reports CPU scheduling overhead of 0.41% / 0.31% on
// the two models; this bench reports the same split from the run's per-tick time totals.
#include <iostream>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

void RunModel(const Setup& setup, const BenchArgs& args, BenchJson& json) {
  Experiment exp(setup);
  AdaServeScheduler scheduler;
  const EngineResult result =
      exp.Run(scheduler, exp.RealTraceStream(SweepDurationFor(args), 4.0, PeakMix()));
  const Metrics& m = result.metrics;
  const double total = m.spec_time + m.select_time + m.verify_time + m.prefill_time;
  std::cout << "\n" << setup.label << "\n";
  TablePrinter table({"Component", "Time(s)", "Share(%)"});
  table.AddRow({"Scheduling (CPU selection)", Fmt(m.select_time, 3),
                Fmt(100.0 * m.select_time / total, 2)});
  table.AddRow({"Speculation (draft GPU)", Fmt(m.spec_time, 3),
                Fmt(100.0 * m.spec_time / total, 2)});
  table.AddRow({"Verification (target GPU)", Fmt(m.verify_time, 3),
                Fmt(100.0 * m.verify_time / total, 2)});
  table.AddRow({"Prefill (target GPU)", Fmt(m.prefill_time, 3),
                Fmt(100.0 * m.prefill_time / total, 2)});
  table.Print(std::cout);
  json.Add(setup.label, "AdaServe", "select_share_pct", 0.0, 100.0 * m.select_time / total);
  json.Add(setup.label, "AdaServe", "spec_share_pct", 0.0, 100.0 * m.spec_time / total);
  json.Add(setup.label, "AdaServe", "verify_share_pct", 0.0, 100.0 * m.verify_time / total);
  json.Add(setup.label, "AdaServe", "prefill_share_pct", 0.0, 100.0 * m.prefill_time / total);
}

int Run(const BenchArgs& args) {
  BenchJson json("fig15_breakdown");
  std::cout << "Figure 15: latency breakdown of AdaServe (4.0 req/s, mix 60/20/20)\n";
  RunModel(LlamaSetup(), args, json);
  RunModel(QwenSetup(), args, json);
  return FinishBench(args, json);
}

}  // namespace
}  // namespace adaserve

int main(int argc, char** argv) {
  return adaserve::Run(adaserve::ParseBenchArgs(argc, argv));
}
