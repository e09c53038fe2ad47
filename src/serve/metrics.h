// End-of-run metrics: SLO attainment, goodput, TPOT distributions,
// speculation acceptance, and the latency breakdown (§6.1 Metrics).
#ifndef ADASERVE_SRC_SERVE_METRICS_H_
#define ADASERVE_SRC_SERVE_METRICS_H_

#include <array>
#include <deque>
#include <span>
#include <string>

#include "src/common/stats.h"
#include "src/serve/scheduler.h"
#include "src/workload/categories.h"
#include "src/workload/request.h"

namespace adaserve {

struct CategoryMetrics {
  int finished = 0;
  int attained = 0;
  long output_tokens = 0;
  long attained_tokens = 0;
  // Per-request average TPOT, milliseconds.
  Samples tpot_ms;
  // Per-request time-to-first-token (arrival to first output token), ms.
  // Not part of the paper's SLO definition, but the right lens on queueing
  // delay under overload.
  Samples ttft_ms;

  double AttainmentPct() const {
    return finished == 0 ? 100.0 : 100.0 * attained / static_cast<double>(finished);
  }
};

struct Metrics {
  std::array<CategoryMetrics, kNumCategories> per_category;
  int finished = 0;
  int attained = 0;
  // End-to-end wall time of the run (first arrival to last completion).
  SimTime makespan = 0.0;
  // Mean accepted speculated tokens per verification per request, averaged
  // over requests that underwent speculative decoding (Fig. 12).
  double mean_accepted = 0.0;
  // Requests that underwent speculative decoding — the weight of
  // mean_accepted, kept so multi-replica merges can re-average it.
  int spec_requests = 0;

  // Latency breakdown sums across all iterations (Fig. 15).
  SimTime spec_time = 0.0;
  SimTime select_time = 0.0;
  SimTime verify_time = 0.0;
  SimTime prefill_time = 0.0;
  SimTime total_time = 0.0;

  // Tick-protocol counters: admissions, recompute-style evictions, and
  // progress-preserving pauses (kSloUrgentPause preemptive eviction)
  // summed over all ticks. Under BoundaryTickConfig() (no eviction
  // budget) evictions and pauses are always 0.
  long admissions = 0;
  long evictions = 0;
  long pauses = 0;

  double AttainmentPct() const {
    return finished == 0 ? 100.0 : 100.0 * attained / static_cast<double>(finished);
  }
  double ViolationPct() const { return 100.0 - AttainmentPct(); }
  // Output tokens of SLO-attaining requests per second (goodput).
  double GoodputTps() const;
  // All output tokens per second.
  double ThroughputTps() const;

  long attained_tokens() const;
  long output_tokens() const;
};

// Incremental metrics accumulation. The streaming engine feeds finished
// requests as they retire and iteration records as they complete, so
// metrics for a million-request run never need the full trace in memory.
// Feeding the same requests/iterations in the same order as the batch
// ComputeMetrics (requests in id order, iterations in execution order)
// produces bit-identical results — both paths share this accumulator.
class MetricsAccumulator {
 public:
  // `req` must be finished. Call in a deterministic order (the engine
  // uses id order) — floating-point accumulation is order-sensitive.
  void AddRequest(const Request& req);

  void AddIteration(const IterationRecord& rec);

  // Snapshot of the accumulated metrics with `makespan` applied. Callable
  // once at end of run (or repeatedly; the accumulator is not consumed).
  Metrics Finalize(SimTime makespan) const;

 private:
  Metrics m_;
  double accepted_sum_ = 0.0;
  int spec_requests_ = 0;
};

// The canonical `key: value` text of the regression-relevant metrics:
// finished and attained counts, output tokens, throughput, SLO
// attainment, goodput, acceptance, makespan and the per-category
// finished / attainment / mean TPOT, doubles in fixed 6-decimal form.
// Equal runs give byte-equal text (the simulation is deterministic);
// golden files and cluster fingerprints are built from it.
std::string MetricsBlockText(const Metrics& m);

// Computes metrics over finished requests and the iteration log.
Metrics ComputeMetrics(std::span<const Request> requests,
                       std::span<const IterationRecord> iterations, SimTime makespan);

// Deque overload (the request pool's resident storage).
Metrics ComputeMetrics(const std::deque<Request>& requests,
                       std::span<const IterationRecord> iterations, SimTime makespan);

}  // namespace adaserve

#endif  // ADASERVE_SRC_SERVE_METRICS_H_
