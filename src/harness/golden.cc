#include "src/harness/golden.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/common/logging.h"
#include "src/workload/categories.h"

namespace adaserve {
namespace {

// Fixed-precision float formatting so the canonical text is stable: the
// simulation is deterministic, so equal runs produce byte-equal text.
std::string FmtFixed(double v, int digits = 6) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

}  // namespace

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
  return cells;
}

std::unique_ptr<ArrivalStream> MakeGoldenStream(const Experiment& exp, GoldenScenario scenario,
                                                const GoldenConfig& config) {
  switch (scenario) {
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
    case GoldenScenario::kRealTrace:
      break;
  }
  ADASERVE_CHECK(false) << "kRealTrace uses the vector path, not a stream";
  return nullptr;
}

std::vector<Request> GoldenWorkload(const Experiment& exp, const GoldenConfig& config) {
  return exp.RealTraceWorkload(config.duration_s, config.mean_rps, WorkloadConfig{},
                               config.trace_seed);
}

EngineConfig GoldenEngineConfig(const GoldenConfig& config, GoldenScenario scenario,
                                GoldenMode mode) {
  // kTickNative is EngineConfig{} — the serving default the tick_ corpus
  // pins; kBoundary reproduces the legacy drain loop and its corpus.
  EngineConfig engine = mode == GoldenMode::kBoundary ? BoundaryTickConfig() : EngineConfig{};
  engine.sampling_seed = config.sampling_seed;
  if (scenario != GoldenScenario::kRealTrace) {
    // Streaming scenarios exercise the full lazy path: bounded arrival
    // horizon, incremental metrics, finished-request retirement.
    engine.retire_finished = true;
  }
  return engine;
}

EngineResult RunGoldenSystem(const Experiment& exp, SystemKind kind, const GoldenConfig& config,
                             GoldenScenario scenario, GoldenMode mode) {
  auto scheduler = MakeScheduler(kind);
  const EngineConfig engine = GoldenEngineConfig(config, scenario, mode);
  if (scenario == GoldenScenario::kRealTrace) {
    return exp.Run(*scheduler, GoldenWorkload(exp, config), engine);
  }
  auto stream = MakeGoldenStream(exp, scenario, config);
  return exp.Run(*scheduler, *stream, engine);
}

std::string GoldenMetricsText(SystemKind kind, const Metrics& metrics) {
  std::ostringstream os;
  os << "system: " << SystemName(kind) << "\n";
  os << "finished: " << metrics.finished << "\n";
  os << "attained: " << metrics.attained << "\n";
  os << "output_tokens: " << metrics.output_tokens() << "\n";
  os << "throughput_tps: " << FmtFixed(metrics.ThroughputTps()) << "\n";
  os << "slo_attainment_pct: " << FmtFixed(metrics.AttainmentPct()) << "\n";
  os << "goodput_tps: " << FmtFixed(metrics.GoodputTps()) << "\n";
  os << "mean_accepted: " << FmtFixed(metrics.mean_accepted) << "\n";
  os << "makespan_s: " << FmtFixed(metrics.makespan) << "\n";
  for (int c = 0; c < kNumCategories; ++c) {
    const CategoryMetrics& cat = metrics.per_category[static_cast<size_t>(c)];
    os << "cat" << (c + 1) << ".finished: " << cat.finished << "\n";
    os << "cat" << (c + 1) << ".attainment_pct: " << FmtFixed(cat.AttainmentPct()) << "\n";
    os << "cat" << (c + 1) << ".mean_tpot_ms: " << FmtFixed(cat.tpot_ms.Mean()) << "\n";
  }
  return os.str();
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

bool ReadGoldenFile(const std::string& path, std::string* contents) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  *contents = os.str();
  return true;
}

bool WriteGoldenFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << contents;
  return out.good();
}

}  // namespace adaserve
