// Scheduler interface and shared serving machinery.
//
// Every serving system — AdaServe and all six baselines — speaks the
// tick-based continuous-batching protocol: the engine calls
// Scheduler::Tick once per event-loop iteration, and the tick itself
// performs admission, the scheduler's decode/speculate/verify phase, and
// (in tick-native mode) mid-tick admission plus a burst-capped prefill
// phase. Requests therefore join and leave batches mid-flight instead of
// only at drain boundaries; the engine (engine.h) stays policy-free and
// only feeds arrivals and advances the clock.
//
// Both admission phases (TickAdmitPhase, MidTickAdmitPhase) are an
// arrival pull plus one RequestPool::Admit call, the one admission entry
// point: a scheduler only chooses its PriorityPolicy (AdmissionPriority),
// and the ranking, evict-for-admission and victim rules live in the pool.
//
// Schedulers implement phase hooks rather than a monolithic step:
//   - DecodePhase: phase A of a tick-native tick — advance running
//                  requests only; the shared tick machinery then handles
//                  mid-tick admission and budgeted prefill (phase B/C).
//                  The one hook every scheduler must implement.
//   - DrainStep:   the drain-style iteration of boundary mode, run after
//                  boundary admission, byte-identical to the historical
//                  loop. Defaults to vLLM's prefill-priority step; only
//                  schedulers that shape the whole batch override it.
#ifndef ADASERVE_SRC_SERVE_SCHEDULER_H_
#define ADASERVE_SRC_SERVE_SCHEDULER_H_

#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/hw/latency_model.h"
#include "src/model/draft_lm.h"
#include "src/model/sampler.h"
#include "src/model/synthetic_lm.h"
#include "src/serve/request_pool.h"
#include "src/spec/token_tree.h"

namespace adaserve {

class Scheduler;

// Default per-request prefill token cap of one tick-native prefill phase
// (the UMA-Serve kBurst limit): one very long prompt cannot consume an
// entire prefill pass, so TTFT of the prompts queued behind it stays
// bounded by ~budget/kBurst peers per tick.
inline constexpr int kBurst = 512;

// Token cap of one whole-prompt prefill iteration of the default
// prefill-priority DrainStep (vLLM's max_num_batched_tokens).
inline constexpr int kMaxPrefillTokens = 4096;

// The unified tick policy: every tick-shaped serving knob in one struct,
// owned by EngineConfig and handed to the scheduler through ServingContext
// unchanged (Engine::Run resolves it with ResolvedFor instead of
// projecting field by field). Defaults describe the serving default —
// tick-native continuous batching with bounded evict-for-admission.
struct TickPolicy {
  // Upper bound on concurrently admitted requests (vLLM max_num_seqs).
  int max_active = 256;
  // Tick-native continuous batching: admission moves inside the tick
  // (including mid-tick, after the decode phase) and prefill runs as a
  // shared burst-capped phase. false = boundary admission + drain-style
  // iterations; with FIFO admission and no eviction (BoundaryTickConfig)
  // that is byte-identical to the historical loop.
  bool continuous = true;
  // kBurst-style per-request prefill cap of the tick's prefill phase.
  int prefill_burst = kBurst;
  // Max evictions (recompute- or pause-style, per the priority policy)
  // per boundary admission phase (0 disables evict-for-admission).
  int max_evictions = 4;
  // Admission ordering of both admission phases, and the victim policy of
  // evict-for-admission. Unset defers to the scheduler's own
  // AdmissionPriority() default (ResolvedFor fills it in).
  std::optional<PriorityPolicy> admission_priority;

  // The policy both admission phases actually rank by (kFifo until
  // resolved or explicitly set).
  PriorityPolicy priority() const {
    return admission_priority.value_or(PriorityPolicy::kFifo);
  }

  // The policy the engine serves: an unset admission_priority becomes the
  // scheduler's default; every other field is served as set, in both
  // modes.
  TickPolicy ResolvedFor(const Scheduler& scheduler) const;
};

// Shared services handed to schedulers each tick. Non-owning.
struct ServingContext {
  const SyntheticLm* target = nullptr;
  const DraftLm* draft = nullptr;
  const LatencyModel* target_latency = nullptr;
  const LatencyModel* draft_latency = nullptr;
  DecodeMode mode = DecodeMode::kStochastic;
  // Verification-side token budget per iteration (the paper's B).
  int verify_budget = 256;
  // Speculator-side per-step token budget (the paper's B2).
  int draft_budget = 256;
  // RNG stream for target sampling / verification.
  Rng* rng = nullptr;
  // Tick policy (EngineConfig::tick, resolved via TickPolicy::ResolvedFor).
  TickPolicy tick;
  // Engine-provided: makes stream arrivals due by the given time visible
  // in the pool's admission queue and returns how many were pulled. Null
  // when the driver injects arrivals itself; mid-tick admission then only
  // sees what is already queued.
  std::function<int(SimTime)> pull_arrivals;
};

// Where one iteration's time went. Speculation/selection/verification map to
// Fig. 15's breakdown; continuous-batching systems only use decode/prefill.
struct IterationRecord {
  SimTime duration = 0.0;
  SimTime spec_time = 0.0;     // draft model decoding (GPU)
  SimTime select_time = 0.0;   // token selection (CPU)
  SimTime verify_time = 0.0;   // target forward: verification or CB decode
  SimTime prefill_time = 0.0;  // portion attributable to standalone prefill
  int prefill_tokens = 0;
  int decode_requests = 0;   // requests that received decode service
  int verified_tokens = 0;   // speculated tokens submitted to the verifier
  int committed_tokens = 0;  // output tokens committed
  int admitted = 0;          // requests admitted during this tick
  int evicted = 0;           // requests evicted (recompute-style) this tick
  int paused = 0;            // requests paused (progress-preserving) this tick
  // Kept only as a name: slobench reads it. Nothing in src/ sets it now.
  int rejected = 0;
};

// Result of one scheduler tick.
struct TickResult {
  IterationRecord record;
  // A tick makes progress iff it consumed simulated time. The engine
  // CHECKs that a no-progress tick leaves an empty pool.
  bool MadeProgress() const { return record.duration > 0.0; }
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string_view name() const = 0;

  // Runs one tick starting at `now`: boundary admission, then either the
  // drain-style iteration (boundary mode) or the shared continuous-tick
  // phases around DecodePhase (tick-native mode). Makes progress whenever
  // the pool has admissible or active work.
  TickResult Tick(SimTime now, RequestPool& pool, ServingContext& ctx);

  // The scheduler's default admission-priority policy;
  // TickPolicy::admission_priority overrides it. Base default: FIFO; only
  // AdaServe, vLLM+Priority and EDF declare another.
  virtual PriorityPolicy AdmissionPriority() const { return PriorityPolicy::kFifo; }

 protected:
  // Drain-style iteration (admit/prefill/decode in one scheduler-owned
  // pass). Assumes admission already ran and the pool has active work.
  // Default: vLLM's prefill-priority step — a RunFullPrefillIteration of
  // at most kMaxPrefillTokens if any request still needs prefill, else
  // DecodePhase.
  virtual IterationRecord DrainStep(SimTime now, RequestPool& pool, ServingContext& ctx);

  // Phase A of a tick-native tick: advance running requests only (decode /
  // speculate-verify); prefill and admission belong to the shared phases.
  // Must return an empty record when nothing is running.
  virtual IterationRecord DecodePhase(SimTime now, RequestPool& pool, ServingContext& ctx) = 0;
};

// --- shared building blocks used by multiple schedulers ---

// Sorts `ids` earliest Request::NextTokenDeadline first; ids (arrival order) break
// deadline ties, so the order is total and deterministic. EDF's decode
// batch and prefill budget both follow it.
void SortByDeadline(const RequestPool& pool, std::vector<RequestId>& ids);

// Runs a vLLM-style prefill-priority iteration if any admitted request still
// needs prefill: full prompts are batched up to `max_prefill_tokens` and
// processed in one pass; completing requests commit their first output
// token. Returns true (and fills `record`) if a prefill iteration ran.
bool RunFullPrefillIteration(SimTime now, RequestPool& pool, ServingContext& ctx,
                             int max_prefill_tokens, IterationRecord& record);

// Runs one continuous-batching decode iteration over `ids` (all must be in
// kRunning): each request commits exactly one target-sampled token.
IterationRecord RunDecodeIteration(SimTime now, RequestPool& pool, ServingContext& ctx,
                                   const std::vector<RequestId>& ids);

// One prompt chunk of a prefill pass.
struct PrefillChunk {
  RequestId id;
  int tokens;
};

// The chunks of one prefill pass and their total token count.
struct PrefillPlan {
  std::vector<PrefillChunk> chunks;
  int tokens = 0;
};

// Plans prefill chunks over the prefilling requests `ids`, in the given
// order, spending at most `budget` tokens with at most `burst` per request
// (<= 0 means uncapped). Empty when there is no budget.
PrefillPlan PlanPrefillChunks(const RequestPool& pool, const std::vector<RequestId>& ids,
                              int budget, int burst);

// Advances each chunk's prefill in order; a prompt that completes commits
// its first output token (prefill's last forward pass produces it) at
// `end`. Adds the chunk tokens and committed tokens to `record`.
void ApplyPrefillChunks(RequestPool& pool, ServingContext& ctx,
                        const std::vector<PrefillChunk>& chunks, SimTime end,
                        IterationRecord& record);

// Commits one target-sampled token for running request `id` at `end`,
// stamping its decode start at `now` on its first decode.
void CommitDecodeToken(SimTime now, SimTime end, RequestPool& pool, ServingContext& ctx,
                       RequestId id, IterationRecord& record);

// Speculative-decoding commit of running request `id`: stamps its decode
// start at `now` on its first decode, verifies the `selected` nodes of
// `tree` (empty = the whole tree) against the target, updates the
// request's verification counters and record.verified_tokens, then
// commits the accepted path at `end` — stopping once the request
// finishes — plus the bonus token if it is still running.
void CommitVerifiedTree(SimTime now, SimTime end, RequestPool& pool, ServingContext& ctx,
                        RequestId id, const TokenTree& tree, const std::vector<char>& selected,
                        IterationRecord& record);

// GPU time of the draft passes that build one speculation tree per request
// for a batch of `n` requests holding `context` KV tokens: draft level l
// runs n * level_widths[l] tokens over a context grown by the n tokens of
// each earlier level (context + n * l). Every tree system prices its
// draft phase here — a k-token chain is widths {1, ..., 1}, a static tree
// {1, b0, b0*b1, ...}, a depth-d width-w beam {1, w, ..., w}.
SimTime DraftTreeTime(const LatencyModel& draft, int n, long context,
                      std::span<const int> level_widths);

// Ids of active requests in kRunning state.
std::vector<RequestId> RunningRequests(const RequestPool& pool);

// Ids of active requests in kPrefilling state.
std::vector<RequestId> PrefillingRequests(const RequestPool& pool);

// --- tick-phase variants of the shared building blocks ---

// Boundary admission phase: pulls arrivals due by `now` (via
// ctx.pull_arrivals, when set — idempotent after the engine's own pull),
// then one RequestPool::Admit under ctx.tick's slot cap, priority and
// eviction budget; displacements are accumulated into *evicted / *paused
// when non-null.
int TickAdmitPhase(SimTime now, RequestPool& pool, ServingContext& ctx, int* evicted = nullptr,
                   int* paused = nullptr);

// Mid-tick admission phase: pulls arrivals due by `now` (via
// ctx.pull_arrivals, when set), then one RequestPool::Admit in
// ctx.tick.priority() order without evictions. Requests arriving while
// the decode phase occupied the GPU join this tick's prefill phase instead
// of waiting for the next boundary; under the SLO-aware policies an urgent
// arrival additionally jumps every queued non-urgent request.
int MidTickAdmitPhase(SimTime now, RequestPool& pool, ServingContext& ctx);

// Budgeted prefill phase: one chunked-prefill pass over prefilling
// requests, FIFO by id, spending at most `budget` prompt tokens with at
// most `burst` per request (kBurst cap; <= 0 means uncapped). Prompts that
// complete commit their first output token at the pass's end time. Returns
// an empty record when there is nothing to prefill or no budget.
IterationRecord RunBudgetedPrefillPhase(SimTime now, RequestPool& pool, ServingContext& ctx,
                                        int budget, int burst);

// Scheduler-specific phase-A body used by RunContinuousTick.
using TickPhaseFn = std::function<IterationRecord(SimTime, RequestPool&, ServingContext&)>;

// The shared tick-native tick:
//   boundary admission -> decode phase (every running request advances) ->
//   mid-tick admission at the decode phase's end time -> burst-capped
//   prefill phase on the leftover token budget, floored at one burst.
// The phases' times and token counts merge into one IterationRecord.
TickResult RunContinuousTick(SimTime now, RequestPool& pool, ServingContext& ctx,
                             const TickPhaseFn& decode_phase);

}  // namespace adaserve

#endif  // ADASERVE_SRC_SERVE_SCHEDULER_H_
