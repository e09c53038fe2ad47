#include "src/core/adaserve_scheduler.h"

#include <algorithm>

#include "src/core/slo_accounting.h"

namespace adaserve {
namespace {

// Guaranteed prefill share of the budget, reserved ahead of the SLO phase
// so queued prompts keep flowing into decode even under load (otherwise
// speculation would starve admission and hide overload as queueing).
constexpr double kPrefillReserve = 0.3;
// Fraction of post-SLO-phase leftover budget additionally offered to
// chunked prefill (ahead of the throughput-optimized phase).
constexpr double kPrefillShare = 0.7;
// When the prompt backlog exceeds kBacklogThresholdFactor x B tokens, run a
// dedicated prefill pass of kDedicatedPrefillFactor x B tokens instead of a
// decode iteration. Co-batched chunks alone cannot keep admission ahead of
// bursty arrivals; the dedicated pass stalls decoding (raising A(r) for
// running requests), which is the prefill pressure the paper observes at
// high RPS.
constexpr double kBacklogThresholdFactor = 60.0;
constexpr double kDedicatedPrefillFactor = 8.0;
// CPU cost model of the selection phase: base + per-candidate-token cost.
constexpr double kSelectCostBase = 20e-6;
constexpr double kSelectCostPerToken = 150e-9;

}  // namespace

IterationRecord AdaServeScheduler::PrefillOnlyStep(SimTime now, RequestPool& pool,
                                                   ServingContext& ctx) {
  // Dedicated prefill pass: drain a kDedicatedPrefillFactor x B slice of
  // the prompt backlog in one compute-bound forward pass, taking prompts
  // in admission order. Boundary mode honours the scheduler's admission
  // priority; only under BoundaryTickConfig() is that order FIFO.
  const int budget =
      std::max(static_cast<int>(ctx.verify_budget * kDedicatedPrefillFactor), 1);
  const IterationRecord record = RunBudgetedPrefillPhase(now, pool, ctx, budget, /*burst=*/0);
  last_duration_ = record.duration;
  return record;
}

IterationRecord AdaServeScheduler::DrainStep(SimTime now, RequestPool& pool,
                                             ServingContext& ctx) {
  const std::vector<RequestId> running = RunningRequests(pool);
  const std::vector<RequestId> prefilling = PrefillingRequests(pool);
  long backlog = 0;
  for (RequestId id : prefilling) {
    const Request& req = pool.Get(id);
    backlog += req.prompt_len - req.prefill_progress;
  }
  if (running.empty() ||
      backlog > static_cast<long>(ctx.verify_budget * kBacklogThresholdFactor)) {
    return PrefillOnlyStep(now, pool, ctx);
  }
  return SpecIteration(now, pool, ctx, running, prefilling);
}

IterationRecord AdaServeScheduler::DecodePhase(SimTime now, RequestPool& pool,
                                               ServingContext& ctx) {
  const std::vector<RequestId> running = RunningRequests(pool);
  if (running.empty()) {
    return IterationRecord{};
  }
  return SpecIteration(now, pool, ctx, running, /*prefilling=*/{});
}

IterationRecord AdaServeScheduler::SpecIteration(SimTime now, RequestPool& pool,
                                                 ServingContext& ctx,
                                                 const std::vector<RequestId>& running,
                                                 const std::vector<RequestId>& prefilling) {
  const int n = static_cast<int>(running.size());

  IterationRecord record;
  record.decode_requests = n;

  // --- adaptive control (Eqs. 8-9) ---
  const BeamConfig beam = config_.adaptive_control
                              ? AdaptSpecParams(n, ctx.verify_budget, ctx.draft_budget,
                                                config_.adaptive)
                              : config_.fixed_beam;
  last_beam_ = beam;

  // --- Step 1: speculation (candidate trees via beam search) ---
  // Draft cost: step 1 processes the n roots; steps 2..d process n*w
  // beam tokens each, shapes that repeat and replay from CUDA graphs.
  draft_widths_.assign(1, 1);
  draft_widths_.resize(static_cast<size_t>(std::max(beam.depth, 1)), beam.width);
  const SimTime spec_time = DraftTreeTime(*ctx.draft_latency, n,
                                          pool.SumContextTokens(running), draft_widths_);
  const RequestPool& requests = pool;
  candidates_.Build(ForkJoinTeam::Shared(), n,
                    [&](int i, BuildScratch& scratch, TokenTree& tree) {
                      const Request& req = requests.Get(running[static_cast<size_t>(i)]);
                      BuildCandidateTree(*ctx.draft, req.stream_seed, req.output, beam, scratch,
                                         tree);
                    });
  long candidate_tokens = 0;
  for (size_t i = 0; i < running.size(); ++i) {
    candidate_tokens += candidates_.tree(i).size() - 1;
  }

  // --- Step 2: selection ---
  // t_spec estimate for A(r): the previous iteration's duration (warm
  // start: twice the verifier's memory-bound floor).
  const SimTime t_spec_estimate =
      last_duration_ > 0.0 ? last_duration_ : 2.0 * ctx.target_latency->WeightLoadTime();
  sel_requests_.resize(running.size());
  for (size_t i = 0; i < running.size(); ++i) {
    const Request& req = pool.Get(running[i]);
    const double a = MinAcceptedForSlo(req, now, t_spec_estimate);
    sel_requests_[i].tree = &candidates_.tree(i);
    sel_requests_[i].a_cap = config_.slo_phase_enabled ? CapRequirement(a, beam.depth) : 0.0;
  }
  // Budget: B counts every verified token, roots included (Algorithm 2
  // decrements B once per root at initialisation).
  const int budget_total = std::max(0, ctx.verify_budget - n);
  long prefill_remaining = 0;
  for (RequestId id : prefilling) {
    const Request& req = pool.Get(id);
    prefill_remaining += req.prompt_len - req.prefill_progress;
  }
  // Prefill-priority within a cap: queued prompts take budget off the top
  // (bounded by kPrefillReserve x B so bursts cannot starve decoding), the
  // SLO-customized phase runs on what remains, then leftovers go to extra
  // prefill chunks and finally to throughput-optimized speculation.
  const int prefill_cap = static_cast<int>(std::min<long>(
      {static_cast<long>(ctx.verify_budget * kPrefillReserve), prefill_remaining,
       static_cast<long>(budget_total)}));
  int budget = budget_total - prefill_cap;
  selector_.Reset(sel_requests_);
  budget -= selector_.SloPhase(budget);
  const int prefill_budget = prefill_cap + static_cast<int>(budget * kPrefillShare);
  const PrefillPlan prefill =
      PlanPrefillChunks(pool, prefilling, prefill_budget, /*burst=*/0);
  budget = budget_total - selector_.result().total_taken - prefill.tokens;
  selector_.ThroughputPhase(budget);
  const SelectionResult& sel = selector_.result();
  const SimTime select_time =
      kSelectCostBase + kSelectCostPerToken * candidate_tokens;

  // --- Step 4: verification (one batched target pass) ---
  const int verify_tokens = n + sel.total_taken + prefill.tokens;
  std::vector<RequestId> all_ids = running;
  for (const PrefillChunk& c : prefill.chunks) {
    all_ids.push_back(c.id);
  }
  const SimTime verify_time = ctx.target_latency->ForwardLatency(
      verify_tokens, pool.SumContextTokens(all_ids), /*use_cuda_graph=*/true);

  const SimTime latency = spec_time + select_time + verify_time;
  const SimTime end = now + latency;

  // Commit: verify each draft tree, commit accepted + bonus tokens.
  for (size_t i = 0; i < running.size(); ++i) {
    CommitVerifiedTree(now, end, pool, ctx, running[i], candidates_.tree(i), sel.selected[i],
                       record);
  }
  ApplyPrefillChunks(pool, ctx, prefill.chunks, end, record);

  record.duration = latency;
  record.spec_time = spec_time;
  record.select_time = select_time;
  // The co-batched chunks' share of the target pass, by token count.
  record.prefill_time = verify_time * static_cast<double>(prefill.tokens) / verify_tokens;
  record.verify_time = verify_time - record.prefill_time;
  last_duration_ = latency;
  return record;
}

}  // namespace adaserve
