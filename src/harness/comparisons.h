// Factory for the serving systems compared in the paper's evaluation.
#ifndef ADASERVE_SRC_HARNESS_COMPARISONS_H_
#define ADASERVE_SRC_HARNESS_COMPARISONS_H_

#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "src/harness/experiment.h"
#include "src/serve/scheduler.h"

namespace adaserve {

enum class SystemKind {
  kAdaServe,
  kVllm,
  kSarathi,
  kVllmSpec4,
  kVllmSpec6,
  kVllmSpec8,
  kVllmPriority,
  kFastServe,
  kVtc,
  kEdf,
};

std::unique_ptr<Scheduler> MakeScheduler(SystemKind kind);
std::string_view SystemName(SystemKind kind);

// Inverse of SystemName (exact match); nullopt for an unknown name. The
// replay harness resolves recorded artifacts' system field through this.
std::optional<SystemKind> SystemKindFromName(std::string_view name);

// Systems of the end-to-end comparison (Figs. 8-12, 14):
// AdaServe, Sarathi-Serve, vLLM, vLLM-Spec(4/6/8), plus the
// deadline-theoretic baseline EDF.
std::vector<SystemKind> MainComparisonSet();

// Systems of the motivation study (Fig. 1): vLLM, vLLM+chunked-prefill
// (Sarathi), vLLM+Priority, FastServe, VTC.
std::vector<SystemKind> MotivationSet();

// Builds a fresh arrival stream for one run. Streams are single-pass, so
// multi-system comparisons need one instance per system; a factory keeps
// every run fed from an identical (same-seed) stream.
using StreamFactory = std::function<std::unique_ptr<ArrivalStream>()>;

struct ComparisonPoint {
  SystemKind kind;
  EngineResult result;
  // Wall-clock seconds this system's run took (its task's own compute
  // time when the comparison ran parallel).
  double wall_clock_s = 0.0;
};

// Runs every system in `systems` over its own identical stream from
// `make_stream`, feeding the engine lazily. With threads > 1 the systems
// run concurrently across a SweepRunner — `make_stream` must then be
// callable from multiple threads at once (every provided factory is: it
// only builds a fresh seeded stream) — and results come back in `systems`
// order with identical metrics; threads == 1 is the exact historical
// serial path, threads == 0 resolves to hardware_concurrency.
std::vector<ComparisonPoint> RunComparison(const Experiment& exp,
                                           const std::vector<SystemKind>& systems,
                                           const StreamFactory& make_stream,
                                           const EngineConfig& engine = {}, int threads = 1);

// Engine config of the legacy drain-style boundary mode: admission only
// at tick boundaries, FIFO, no eviction — byte-identical to the
// historical engine loop and the legacy golden corpus (tests/golden/
// files without the tick_ prefix). tick_equivalence_test pins it against
// Experiment::RunLegacyDrainLoop.
EngineConfig BoundaryTickConfig();

}  // namespace adaserve

#endif  // ADASERVE_SRC_HARNESS_COMPARISONS_H_
