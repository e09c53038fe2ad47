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

// Admission-ordering policy of the tick's admission phases (boundary and
// mid-tick). kFifo admits in arrival order — the historical behavior.
// kSloUrgentFirst is the paper's SLO-customized admission: requests from
// tighter-TPOT-SLO categories jump the queue at both admission points, and
// the evict-for-admission phase may recompute-evict a strictly less urgent
// *prefilling* request to make room for an urgent head. kSloUrgentPause
// ranks identically but resolves KV pressure preemptively: the urgent head
// *pauses* its victim (prefill progress preserved, resume-where-left-off)
// instead of recompute-evicting it — modeling KV swap-out rather than
// recomputation.
enum class PriorityPolicy {
  kFifo,
  kSloUrgentFirst,
  kSloUrgentPause,
  // Earliest-deadline-first: ranks by each request's *next token deadline*
  // (NextTokenDeadline) instead of the static SLO category, so a relaxed
  // request that has fallen behind can outrank a fresh urgent one — the
  // classic real-time answer to the same problem the SLO-aware policies
  // attack with category heuristics.
  kEdf,
};

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
  // TickPolicy::admission_priority overrides it. Base default: FIFO.
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

// The deadline by which a request's next output token must commit to keep
// its TPOT SLO: first_token_time + committed_len * tpot_slo once decoding
// has started, arrival + tpot_slo before the first token exists (the first
// token's deadline proxy — TTFT is not the gated metric, but a request
// that has not even produced token one is at least this urgent). This is
// the key every kEdf ranking, victim selection, and ordering decision uses.
SimTime NextTokenDeadline(const Request& req);

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

// Ids of active requests in kRunning state.
std::vector<RequestId> RunningRequests(const RequestPool& pool);

// Ids of active requests in kPrefilling state.
std::vector<RequestId> PrefillingRequests(const RequestPool& pool);

// --- tick-phase variants of the shared building blocks ---

// Admission ranker of a priority policy: null for kFifo (arrival order),
// tighter-TPOT-SLO-first for the SLO-aware policies (ties keep arrival
// order).
RequestPool::AdmissionRanker PriorityRanker(PriorityPolicy policy);

// Evict-for-admission victim selector of a priority policy: null for
// kFifo (newest-admitted zero-output request, any category), SLO-aware
// for kSloUrgentFirst/kSloUrgentPause — the head may only displace a
// *prefilling* request whose TPOT SLO is strictly looser than its own,
// least urgent victims first (newest-admitted breaks ties), so urgent
// work is never displaced to admit more urgent work it cannot beat.
RequestPool::VictimSelector PriorityVictimSelector(PriorityPolicy policy);

// How an SLO-aware priority policy resolves KV pressure: kSloUrgentPause
// pauses its victims (progress preserved), everything else recomputes.
EvictionStyle PriorityEvictionStyle(PriorityPolicy policy);

// Boundary admission phase: pulls arrivals due by `now` (via
// ctx.pull_arrivals, when set — idempotent after the engine's own pull)
// and admits in ctx.tick.priority() order up to the slot cap. With
// ctx.tick.max_evictions > 0, a queue head blocked on KV may displace
// victims chosen by the policy — recompute-evicting under
// kSloUrgentFirst/kFifo, pausing under kSloUrgentPause; the counts are
// accumulated into *evicted / *paused when non-null.
int TickAdmitPhase(SimTime now, RequestPool& pool, ServingContext& ctx, int* evicted = nullptr,
                   int* paused = nullptr);

// Mid-tick admission phase: pulls arrivals due by `now` (via
// ctx.pull_arrivals, when set) and admits in ctx.tick.priority() order.
// Requests arriving while the decode phase occupied the GPU join this
// tick's prefill phase instead of waiting for the next boundary — the
// admission latency the drain loop could not avoid; under the SLO-aware
// policies an urgent arrival additionally jumps every queued non-urgent
// request.
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
