// Discrete-event serving engine.
//
// The engine replays an arrival trace against a scheduler: it pulls
// arrivals whose time has come from an ArrivalStream, hands the scheduler
// one Tick (the tick itself admits, prefills, decodes, and — in
// tick-native mode — admits again mid-tick), advances the clock by the
// tick's duration, and repeats until the stream is exhausted and every
// request finishes. It is the execution-engine half of Fig. 6 with GPU
// time supplied by the roofline model; all policy lives in the tick.
//
// Arrivals are consumed lazily: at most tick.max_active +
// arrival_horizon requests are pulled ahead of admission, so a
// generator-backed stream serves million-request workloads with the
// resident request count proportional to the active set, not the trace.
// (End-of-run metrics still keep two scalar samples per finished request
// for percentile queries — ~16 bytes each, the only per-request remnant.)
// The classic vector overload wraps the trace in a MaterializedStream and
// behaves exactly as before.
#ifndef ADASERVE_SRC_SERVE_ENGINE_H_
#define ADASERVE_SRC_SERVE_ENGINE_H_

#include <vector>

#include "src/hw/budget.h"
#include "src/serve/metrics.h"
#include "src/serve/scheduler.h"
#include "src/workload/arrival_stream.h"

namespace adaserve {

// One progressing tick as seen by a trace sink: the clock at tick start,
// the scheduler's full IterationRecord (admissions, evictions/pauses,
// prefill chunk budget actually spent, decode/verify activity), how many
// arrivals were pulled from the stream for this tick (boundary pull plus
// mid-tick pulls).
struct TickTraceEvent {
  // 0-based index over progressing ticks (non-progress probes and
  // event-driven skips do not consume an index).
  long index = 0;
  // Simulated clock at tick start.
  SimTime start = 0.0;
  IterationRecord record;
  // Arrivals pulled from the stream and charged to this tick.
  int arrivals_pulled = 0;
};

// Streaming observer of one engine run. Enabled by EngineConfig::
// trace_sink; the engine reports every arrival it pulls (in pull order,
// the request still in its immutable arrival state) and every progressing
// tick. Callbacks run synchronously on the engine loop — implementations
// must not re-enter the engine. The record/replay harness
// (src/harness/replay.h) is the canonical consumer; IterationCsvSink
// (src/harness/report.h) streams the per-tick breakdown to CSV.
class TickTraceSink {
 public:
  virtual ~TickTraceSink() = default;

  virtual void OnArrival(const Request& request) = 0;
  virtual void OnTick(const TickTraceEvent& event) = 0;
};

struct EngineConfig {
  // Safety valve: abort if an experiment exceeds this many iterations.
  long max_iterations = 50'000'000;
  uint64_t sampling_seed = 1234;
  DecodeMode mode = DecodeMode::kStochastic;
  // Queued arrivals pulled from the stream beyond what admission can
  // consume this iteration. Under FIFO admission any value >= 0 yields
  // identical scheduling (admission can admit at most tick.max_active
  // per iteration) and the horizon only bounds how much of a due burst
  // is resident at once. Under a priority admission policy it
  // additionally bounds how deep into a due burst the ranker can see: an
  // urgent arrival beyond the horizon cannot jump the queue until the
  // backlog ahead of it is pulled.
  int arrival_horizon = 256;
  // Retire finished requests as the run progresses: their metrics are
  // accumulated incrementally, their token payloads are freed at finish,
  // and EngineResult::requests is left empty. Metrics are bit-identical
  // to a non-retiring run.
  bool retire_finished = false;
  // The unified tick policy (scheduler.h): every tick-shaped serving knob
  // — slot cap (vLLM max_num_seqs), continuous vs boundary ticks, prefill
  // burst, eviction budget, admission priority — in one struct.
  // Engine::Run resolves it (TickPolicy::ResolvedFor) and hands it to the
  // scheduler through ServingContext unchanged.
  TickPolicy tick;
  // Optional run observer — the engine's only per-tick channel (record/
  // replay, the iteration CSV): receives every pulled arrival and every
  // progressing tick. Non-owning; must outlive the run. Purely
  // observational — a run with a sink is byte-identical to one without.
  TickTraceSink* trace_sink = nullptr;
};

struct EngineResult {
  Metrics metrics;
  // Final per-request records (timestamps, outputs, speculation counters).
  // Empty when EngineConfig::retire_finished is on.
  std::vector<Request> requests;
  SimTime end_time = 0.0;
  // Engine loop iterations executed, event-driven skips included.
  long total_iterations = 0;
  // Peak number of requests resident in the pool at once — the O(active)
  // memory guarantee for streaming runs.
  size_t peak_resident_requests = 0;
};

class Engine {
 public:
  // Non-owning references; all must outlive the engine.
  Engine(const SyntheticLm* target, const DraftLm* draft, const LatencyModel* target_latency,
         const LatencyModel* draft_latency, const EngineConfig& config = {});

  // Serves `source` — a live ArrivalStream (pulled lazily) or an
  // arrival-sorted request vector (adapted via MaterializedStream), both
  // of which convert implicitly — with `scheduler` until the stream is
  // exhausted and the pool drains. `verify_budget`/`draft_budget`
  // parameterise the ServingContext; pass 0 to derive them from the
  // roofline (DeriveTokenBudget).
  EngineResult Run(Scheduler& scheduler, WorkloadSource source, int verify_budget = 0,
                   int draft_budget = 0);

 private:
  const SyntheticLm* target_;
  const DraftLm* draft_;
  const LatencyModel* target_latency_;
  const LatencyModel* draft_latency_;
  EngineConfig config_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_SERVE_ENGINE_H_
