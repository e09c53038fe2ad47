// Streaming-scenario sweep: every main-comparison system served from the
// three generator-backed streams (MMPP bursty, diurnal, category churn),
// fed lazily through the streaming engine path.
//
// Complements Figs. 13-14 (whose bursts are materialized per category) with
// workload shapes the vector path cannot express at scale: modulated
// bursts, compressed day cycles, and a category mix that inverts over the
// run.
#include <iostream>
#include <string>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

constexpr double kDuration = 60.0;

struct Scenario {
  std::string label;
  StreamFactory make;
};

std::vector<Scenario> Scenarios(const Experiment& exp) {
  const std::vector<CategorySpec> cats = exp.Categories();
  return {
      {"bursty (MMPP 1.5/9 rps)",
       [cats] {
         MmppStreamConfig config;
         config.mmpp.state_rps = {1.5, 9.0};
         config.mmpp.mean_sojourn_s = {8.0, 4.0};
         config.duration = kDuration;
         config.trace_seed = 1301;
         return MakeMmppStream(cats, config);
       }},
      {"diurnal (4 rps, amp 0.8)",
       [cats] {
         DiurnalStreamConfig config;
         config.duration = kDuration;
         config.mean_rps = 4.0;
         config.diurnal.period_s = kDuration;
         config.diurnal.amplitude = 0.8;
         config.trace_seed = 1302;
         return MakeDiurnalStream(cats, config);
       }},
      {"churn (coding -> summ)",
       [cats] {
         ChurnStreamConfig config;
         config.duration = kDuration;
         config.mean_rps = 4.0;
         config.trace_seed = 1303;
         return MakeChurnStream(cats, config);
       }},
  };
}

void Run() {
  const Experiment exp(QwenSetup());
  std::cout << "Streaming workload scenarios (" << exp.setup().label << ", " << kDuration
            << " s, lazy stream-fed engine)\n\n";

  EngineConfig engine;
  engine.retire_finished = true;

  for (const Scenario& scenario : Scenarios(exp)) {
    std::cout << "== " << scenario.label << " ==\n";
    TablePrinter table({"system", "finished", "attain(%)", "goodput(tok/s)", "peak resident"});
    for (const ComparisonPoint& point :
         RunComparison(exp, MainComparisonSet(), scenario.make, engine)) {
      table.AddRow({std::string(SystemName(point.kind)),
                    std::to_string(point.result.metrics.finished),
                    Fmt(point.result.metrics.AttainmentPct(), 1),
                    Fmt(point.result.metrics.GoodputTps(), 1),
                    std::to_string(point.result.peak_resident_requests)});
    }
    table.Print(std::cout);
    std::cout << "\n";
  }
}

}  // namespace
}  // namespace adaserve

int main() {
  adaserve::Run();
  return 0;
}
