#include "src/harness/golden.h"

#include <cctype>
#include <utility>

#include "src/common/logging.h"

namespace adaserve {

Setup GoldenSetup() {
  Setup setup = QwenSetup();
  setup.lm_config.vocab_size = 2000;
  setup.lm_config.support = 8;
  return setup;
}

std::string GoldenModePrefix(GoldenMode mode) {
  return mode == GoldenMode::kTickNative ? "tick_" : "";
}

std::string GoldenScenarioPrefix(GoldenScenario scenario) {
  switch (scenario) {
    case GoldenScenario::kRealTrace:
      return "";
    case GoldenScenario::kBursty:
      return "bursty_";
    case GoldenScenario::kDiurnal:
      return "diurnal_";
    case GoldenScenario::kFlashCrowd:
      return "flash_";
    case GoldenScenario::kTenantFlood:
      return "flood_";
    case GoldenScenario::kLongPromptPoison:
      return "hol_";
    case GoldenScenario::kCorrelatedBursts:
      return "corr_";
  }
  return "";
}

std::string GoldenCell::Filename() const {
  return GoldenModePrefix(mode) + GoldenScenarioPrefix(scenario) + GoldenFileSlug(kind) + ".txt";
}

std::vector<GoldenCell> AllGoldenCells() {
  std::vector<GoldenCell> cells;
  const std::vector<SystemKind> systems = MainComparisonSet();
  // The historical corpus: both modes across the original scenarios.
  for (GoldenScenario scenario :
       {GoldenScenario::kRealTrace, GoldenScenario::kBursty, GoldenScenario::kDiurnal}) {
    for (SystemKind kind : systems) {
      cells.push_back({kind, scenario, GoldenMode::kTickNative});
    }
    for (SystemKind kind : systems) {
      cells.push_back({kind, scenario, GoldenMode::kBoundary});
    }
  }
  // The stress corpus: tick-native only (the boundary corpus is the
  // frozen legacy reference).
  for (GoldenScenario scenario :
       {GoldenScenario::kFlashCrowd, GoldenScenario::kTenantFlood,
        GoldenScenario::kLongPromptPoison, GoldenScenario::kCorrelatedBursts}) {
    for (SystemKind kind : systems) {
      cells.push_back({kind, scenario, GoldenMode::kTickNative});
    }
  }
  // VTC under the adversarial flood: the fair-queuing baseline the flood
  // scenario exists to stress.
  cells.push_back({SystemKind::kVtc, GoldenScenario::kTenantFlood, GoldenMode::kTickNative});
  // vLLM+Priority on the real trace in both modes: pins its urgent-first
  // admission and its boundary-mode DrainStep.
  for (GoldenMode mode : {GoldenMode::kTickNative, GoldenMode::kBoundary}) {
    cells.push_back({SystemKind::kVllmPriority, GoldenScenario::kRealTrace, mode});
  }
  return cells;
}

std::unique_ptr<ArrivalStream> MakeGoldenStream(const Experiment& exp, GoldenScenario scenario,
                                                const GoldenConfig& config) {
  switch (scenario) {
    case GoldenScenario::kRealTrace:
      return exp.RealTraceStream(config.duration_s, config.mean_rps, WorkloadConfig{},
                                 config.trace_seed);
    case GoldenScenario::kBursty: {
      // ON/OFF MMPP: quiet 1 rps baseline with ~1 s bursts at 8 rps, mean
      // rate comparable to the real-trace golden so runtimes match.
      MmppStreamConfig bursty;
      bursty.mmpp.state_rps = {1.0, 8.0};
      bursty.mmpp.mean_sojourn_s = {2.0, 1.0};
      bursty.duration = config.duration_s;
      bursty.trace_seed = config.trace_seed;
      return MakeMmppStream(exp.Categories(), bursty);
    }
    case GoldenScenario::kDiurnal: {
      // One compressed "day" per run: the peak lands mid-trace and the
      // trough bottoms out at 20% of the mean rate.
      DiurnalStreamConfig diurnal;
      diurnal.diurnal.period_s = config.duration_s;
      diurnal.diurnal.peak_phase = 0.55;
      diurnal.diurnal.amplitude = 0.8;
      diurnal.duration = config.duration_s;
      diurnal.mean_rps = config.mean_rps;
      diurnal.trace_seed = config.trace_seed;
      return MakeDiurnalStream(exp.Categories(), diurnal);
    }
    case GoldenScenario::kFlashCrowd:
      return MakeStressStream(exp.Categories(), StressScenario::kFlashCrowd, config.duration_s,
                              config.trace_seed);
    case GoldenScenario::kTenantFlood:
      return MakeStressStream(exp.Categories(), StressScenario::kTenantFlood, config.duration_s,
                              config.trace_seed);
    case GoldenScenario::kLongPromptPoison:
      return MakeStressStream(exp.Categories(), StressScenario::kLongPromptPoison,
                              config.duration_s, config.trace_seed);
    case GoldenScenario::kCorrelatedBursts:
      return MakeStressStream(exp.Categories(), StressScenario::kCorrelatedBursts,
                              config.duration_s, config.trace_seed);
  }
  ADASERVE_CHECK(false) << "unknown golden scenario";
  return nullptr;
}

EngineConfig GoldenEngineConfig(const GoldenConfig& config, GoldenScenario scenario,
                                GoldenMode mode) {
  // kTickNative is EngineConfig{} — the serving default the tick_ corpus
  // pins; kBoundary reproduces the legacy drain loop and its corpus.
  EngineConfig engine = mode == GoldenMode::kBoundary ? BoundaryTickConfig() : EngineConfig{};
  engine.sampling_seed = config.sampling_seed;
  if (scenario != GoldenScenario::kRealTrace) {
    // Every scenario but the historical real trace exercises the full
    // lazy path: bounded arrival horizon, incremental metrics,
    // finished-request retirement.
    engine.retire_finished = true;
  }
  return engine;
}

EngineResult RunGoldenSystem(const Experiment& exp, SystemKind kind, const GoldenConfig& config,
                             GoldenScenario scenario, GoldenMode mode) {
  auto scheduler = MakeScheduler(kind);
  return exp.Run(*scheduler, MakeGoldenStream(exp, scenario, config),
                 GoldenEngineConfig(config, scenario, mode));
}

std::string GoldenMetricsText(SystemKind kind, const Metrics& metrics) {
  return "system: " + std::string(SystemName(kind)) + "\n" + MetricsBlockText(metrics);
}

std::string GoldenFileSlug(SystemKind kind) {
  std::string slug;
  for (char ch : SystemName(kind)) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      slug.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(ch))));
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

}  // namespace adaserve
