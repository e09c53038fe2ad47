// Stress-scenario sweep: every main-comparison system served from the
// four adversarial workload shapes in src/workload/scenarios.h — flash
// crowd, adversarial tenant flood (VTC joins for this one), long-prompt
// head-of-line poisoning, and correlated category bursts.
//
// The flash-crowd rows additionally report recovery time to SLO: how long
// past the end of the overload window the system keeps missing SLOs on
// its backlog (0 = fully absorbed). perf_diff treats recovery_s as
// lower-is-better, so CI catches schedulers that get slower at draining
// a crowd even when steady-state goodput holds.
#include <iostream>
#include <string>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

constexpr uint64_t kScenarioSeed = 42;

std::vector<SystemKind> SystemsFor(StressScenario scenario) {
  std::vector<SystemKind> systems = MainComparisonSet();
  if (scenario == StressScenario::kTenantFlood) {
    // The fair-queuing baseline is the system this scenario exists to stress.
    systems.push_back(SystemKind::kVtc);
  }
  return systems;
}

int Run(const BenchArgs& args) {
  BenchJson json("scenarios");
  SweepRunner runner(args.threads);
  const double duration = SweepDurationFor(args);
  std::cout << "Stress scenarios (" << QwenSetup().label << ", " << duration << " s, "
            << runner.threads() << " threads)\n";

  // Keep per-request records: RecoveryTimeToSlo reads finish times.
  EngineConfig engine;

  for (const StressScenario scenario : AllStressScenarios()) {
    const std::string slug = StressScenarioSlug(scenario);
    const bool flash = scenario == StressScenario::kFlashCrowd;
    std::cout << "\n== " << StressScenarioName(scenario) << " ==\n";
    TablePrinter table(flash ? std::vector<std::string>{"system", "finished", "attain(%)",
                                                        "goodput(tok/s)", "recovery(s)"}
                             : std::vector<std::string>{"system", "finished", "attain(%)",
                                                        "goodput(tok/s)"});
    const std::vector<SweepCellResult> cells = RunSetupSweep(
        runner, QwenSetup(), SystemsFor(scenario), {0.0},
        [scenario, duration](const Experiment& exp, double /*x*/) {
          return MakeStressStream(exp.Categories(), scenario, duration, kScenarioSeed);
        },
        engine);
    for (const SweepCellResult& cell : cells) {
      const Metrics& m = cell.result.metrics;
      const std::string system(SystemName(cell.system));
      json.Add(slug, system, "finished", 0.0, static_cast<double>(m.finished));
      json.Add(slug, system, "attainment_pct", 0.0, m.AttainmentPct());
      json.Add(slug, system, "goodput_tps", 0.0, m.GoodputTps());
      AddCellWallClock(json, slug, cell);
      std::vector<std::string> row = {system, std::to_string(m.finished),
                                      FmtPct(m.AttainmentPct()), Fmt(m.GoodputTps(), 1)};
      if (flash) {
        const double recovery = RecoveryTimeToSlo(
            cell.result.requests, DefaultFlashCrowd(duration, kScenarioSeed),
            cell.result.end_time);
        json.Add(slug, system, "recovery_s", 0.0, recovery);
        row.push_back(Fmt(recovery, 2));
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
  }

  json.SetRunInfo(runner.threads(), runner.total_wall_clock_s());
  return FinishBench(args, json);
}

}  // namespace
}  // namespace adaserve

int main(int argc, char** argv) {
  return adaserve::Run(adaserve::ParseBenchArgs(argc, argv));
}
