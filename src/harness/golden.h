// Golden-metrics regression harness.
//
// Pins down the end-of-run metrics of every system in MainComparisonSet()
// on a fixed-seed workload as canonical text, so scheduler/engine refactors
// can be proven regression-free by diffing against checked-in baselines
// (tests/golden/*.txt). Regenerate with `golden_test --update_golden`.
#ifndef ADASERVE_SRC_HARNESS_GOLDEN_H_
#define ADASERVE_SRC_HARNESS_GOLDEN_H_

#include <string>
#include <vector>

#include "src/harness/comparisons.h"
#include "src/harness/experiment.h"
#include "src/workload/scenarios.h"

namespace adaserve {

// The fixed-seed workload every golden run uses. Small enough that a full
// MainComparisonSet() sweep stays in unit-test time, large enough that all
// three categories and the speculation path are exercised.
struct GoldenConfig {
  double duration_s = 8.0;
  double mean_rps = 3.0;
  uint64_t trace_seed = 42;
  uint64_t sampling_seed = 1234;
};

// The compact Qwen-32B setup shared by the golden runs (mirrors
// tests/test_util.h TestSetup so goldens track the unit-test path).
Setup GoldenSetup();

// Workloads pinned by golden baselines, each a fixed-seed stream.
// kRealTrace is the Fig. 7 trace (Experiment::RealTraceStream), served
// without retirement so the corpus keeps its historical bits; kBursty
// (MMPP) and kDiurnal (time-of-day) run with finished-request
// retirement, so the baselines also pin the streaming admission/metrics
// path. The stress scenarios (workload/scenarios.h) are pinned too,
// tick-native only.
enum class GoldenScenario {
  kRealTrace,
  kBursty,
  kDiurnal,
  kFlashCrowd,
  kTenantFlood,
  kLongPromptPoison,
  kCorrelatedBursts,
};

// Serving modes pinned by golden baselines. Every scenario exists in both
// corpora: kTickNative (files prefixed tick_) pins the default serving
// mode — continuous ticks with each scheduler's admission-priority
// default and evict-for-admission — while kBoundary (unprefixed files,
// the pre-tick corpus) pins the legacy drain loop via BoundaryTickConfig
// and must never drift.
enum class GoldenMode {
  kTickNative,
  kBoundary,
};

// Baseline filename prefix: "", "bursty_", "diurnal_", "flash_",
// "flood_", "hol_", "corr_".
std::string GoldenScenarioPrefix(GoldenScenario scenario);

// One pinned baseline: (system, scenario, mode) -> tests/golden/<file>.
struct GoldenCell {
  SystemKind kind = SystemKind::kAdaServe;
  GoldenScenario scenario = GoldenScenario::kRealTrace;
  GoldenMode mode = GoldenMode::kTickNative;

  // Baseline filename, e.g. "tick_bursty_adaserve.txt".
  std::string Filename() const;
};

// The single source of truth for the golden corpus: every cell the
// regression test checks, `--update_golden` regenerates, and the orphan
// scan accepts. MainComparisonSet x {real-trace, bursty, diurnal} x
// {tick-native, boundary} (the historical corpus), plus MainComparisonSet
// x the four stress scenarios tick-native, plus VTC under the tenant
// flood (the fair-queuing baseline the flood exists to stress), plus
// vLLM+Priority on the real trace in both modes.
std::vector<GoldenCell> AllGoldenCells();

// Baseline filename mode prefix: "tick_" for kTickNative, "" for
// kBoundary. Composes in front of the scenario prefix, e.g.
// tick_bursty_adaserve.txt.
std::string GoldenModePrefix(GoldenMode mode);

// Builds the canonical fixed-seed stream of `scenario` — what
// RunGoldenSystem serves. Exposed so tests can serve the exact golden
// trace under other engine configs.
std::unique_ptr<ArrivalStream> MakeGoldenStream(const Experiment& exp, GoldenScenario scenario,
                                                const GoldenConfig& config = {});

// Engine config RunGoldenSystem serves (scenario, mode) under — factored
// out so the record/replay harness can attach a trace sink to the exact
// golden engine settings.
EngineConfig GoldenEngineConfig(const GoldenConfig& config, GoldenScenario scenario,
                                GoldenMode mode);

// Runs `kind` on the canonical workload of `scenario` under `mode` and
// returns its result. The default is the serving default: tick-native.
EngineResult RunGoldenSystem(const Experiment& exp, SystemKind kind,
                             const GoldenConfig& config = {},
                             GoldenScenario scenario = GoldenScenario::kRealTrace,
                             GoldenMode mode = GoldenMode::kTickNative);

// The golden file text: a `system:` line, then MetricsBlockText.
std::string GoldenMetricsText(SystemKind kind, const Metrics& metrics);

// Filesystem-safe slug for a system's baseline file, e.g.
// "vLLM-Spec(4)" -> "vllm_spec_4". The baseline lives at
// <golden_dir>/<slug>.txt.
std::string GoldenFileSlug(SystemKind kind);

}  // namespace adaserve

#endif  // ADASERVE_SRC_HARNESS_GOLDEN_H_
