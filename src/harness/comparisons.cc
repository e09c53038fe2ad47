#include "src/harness/comparisons.h"

#include "src/baselines/edf.h"
#include "src/baselines/fastserve.h"
#include "src/baselines/priority.h"
#include "src/baselines/sarathi.h"
#include "src/baselines/static_tree_spec.h"
#include "src/baselines/vllm.h"
#include "src/baselines/vtc.h"
#include "src/common/logging.h"
#include "src/core/adaserve_scheduler.h"

namespace adaserve {
namespace {

// vLLM-Spec(k): a static tree of k levels with branching 1, the k-token
// greedy chain.
std::unique_ptr<Scheduler> VllmSpec(int k) {
  return std::make_unique<StaticTreeSpecScheduler>(
      StaticTreeConfig{.branching = std::vector<int>(static_cast<size_t>(k), 1)});
}

}  // namespace

std::unique_ptr<Scheduler> MakeScheduler(SystemKind kind) {
  switch (kind) {
    case SystemKind::kAdaServe:
      return std::make_unique<AdaServeScheduler>();
    case SystemKind::kVllm:
      return std::make_unique<VllmScheduler>();
    case SystemKind::kSarathi:
      return std::make_unique<SarathiScheduler>();
    case SystemKind::kVllmSpec4:
      return VllmSpec(4);
    case SystemKind::kVllmSpec6:
      return VllmSpec(6);
    case SystemKind::kVllmSpec8:
      return VllmSpec(8);
    case SystemKind::kVllmPriority:
      return std::make_unique<PriorityScheduler>();
    case SystemKind::kFastServe:
      return std::make_unique<FastServeScheduler>();
    case SystemKind::kVtc:
      return std::make_unique<VtcScheduler>();
    case SystemKind::kEdf:
      return std::make_unique<EdfScheduler>();
  }
  ADASERVE_CHECK(false) << "unknown system kind";
  return nullptr;
}

std::string_view SystemName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kAdaServe:
      return "AdaServe";
    case SystemKind::kVllm:
      return "vLLM";
    case SystemKind::kSarathi:
      return "Sarathi-Serve";
    case SystemKind::kVllmSpec4:
      return "vLLM-Spec(4)";
    case SystemKind::kVllmSpec6:
      return "vLLM-Spec(6)";
    case SystemKind::kVllmSpec8:
      return "vLLM-Spec(8)";
    case SystemKind::kVllmPriority:
      return "vLLM+Priority";
    case SystemKind::kFastServe:
      return "FastServe";
    case SystemKind::kVtc:
      return "VTC";
    case SystemKind::kEdf:
      return "EDF";
  }
  return "?";
}

std::optional<SystemKind> SystemKindFromName(std::string_view name) {
  for (SystemKind kind :
       {SystemKind::kAdaServe, SystemKind::kVllm, SystemKind::kSarathi, SystemKind::kVllmSpec4,
        SystemKind::kVllmSpec6, SystemKind::kVllmSpec8, SystemKind::kVllmPriority,
        SystemKind::kFastServe, SystemKind::kVtc, SystemKind::kEdf}) {
    if (SystemName(kind) == name) {
      return kind;
    }
  }
  return std::nullopt;
}

std::vector<SystemKind> MainComparisonSet() {
  return {SystemKind::kAdaServe,  SystemKind::kSarathi,   SystemKind::kVllm,
          SystemKind::kVllmSpec4, SystemKind::kVllmSpec6, SystemKind::kVllmSpec8,
          SystemKind::kEdf};
}

std::vector<SystemKind> MotivationSet() {
  return {SystemKind::kVllm, SystemKind::kSarathi, SystemKind::kVllmPriority,
          SystemKind::kFastServe, SystemKind::kVtc};
}

EngineConfig BoundaryTickConfig() {
  EngineConfig engine;
  engine.tick.continuous = false;
  engine.tick.max_evictions = 0;
  engine.tick.admission_priority = PriorityPolicy::kFifo;
  return engine;
}

}  // namespace adaserve
