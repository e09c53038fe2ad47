#include "src/serve/scheduler.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"
#include "src/spec/verifier.h"

namespace adaserve {

TickPolicy TickPolicy::ResolvedFor(const Scheduler& scheduler) const {
  // An explicit policy wins, otherwise the scheduler's own default (e.g.
  // AdaServe admits urgent-first, vLLM stays FIFO).
  TickPolicy resolved = *this;
  if (!resolved.admission_priority.has_value()) {
    resolved.admission_priority = scheduler.AdmissionPriority();
  }
  return resolved;
}

std::vector<RequestId> RunningRequests(const RequestPool& pool) {
  std::vector<RequestId> ids;
  ids.reserve(pool.active().size());
  for (RequestId id : pool.active()) {
    if (pool.Get(id).state == RequestState::kRunning) {
      ids.push_back(id);
    }
  }
  return ids;
}

std::vector<RequestId> PrefillingRequests(const RequestPool& pool) {
  std::vector<RequestId> ids;
  ids.reserve(pool.active().size());
  for (RequestId id : pool.active()) {
    if (pool.Get(id).state == RequestState::kPrefilling) {
      ids.push_back(id);
    }
  }
  return ids;
}

bool RunFullPrefillIteration(SimTime now, RequestPool& pool, ServingContext& ctx,
                             int max_prefill_tokens, IterationRecord& record) {
  const std::vector<RequestId> prefilling = PrefillingRequests(pool);
  if (prefilling.empty()) {
    return false;
  }
  // Batch whole prompts FIFO until the token cap; always take at least one
  // prompt so oversized prompts still make progress.
  std::vector<PrefillChunk> batch;
  std::vector<RequestId> ids;
  int batch_tokens = 0;
  for (RequestId id : prefilling) {
    const Request& req = pool.Get(id);
    const int remaining = req.prompt_len - req.prefill_progress;
    if (!batch.empty() && batch_tokens + remaining > max_prefill_tokens) {
      break;
    }
    batch.push_back({id, remaining});
    ids.push_back(id);
    batch_tokens += remaining;
  }
  const SimTime latency =
      ctx.target_latency->PrefillLatency(batch_tokens, pool.SumContextTokens(ids));
  ApplyPrefillChunks(pool, ctx, batch, now + latency, record);
  record.duration = latency;
  record.prefill_time = latency;
  return true;
}

IterationRecord RunDecodeIteration(SimTime now, RequestPool& pool, ServingContext& ctx,
                                   const std::vector<RequestId>& ids) {
  IterationRecord record;
  if (ids.empty()) {
    return record;
  }
  const long context = pool.SumContextTokens(ids);
  const SimTime latency =
      ctx.target_latency->ForwardLatency(static_cast<int>(ids.size()), context,
                                         /*use_cuda_graph=*/true);
  const SimTime end = now + latency;
  for (RequestId id : ids) {
    CommitDecodeToken(now, end, pool, ctx, id, record);
  }
  record.duration = latency;
  record.verify_time = latency;
  record.decode_requests = static_cast<int>(ids.size());
  return record;
}

PrefillPlan PlanPrefillChunks(const RequestPool& pool, const std::vector<RequestId>& ids,
                              int budget, int burst) {
  const int per_request_cap = burst > 0 ? burst : std::numeric_limits<int>::max();
  PrefillPlan plan;
  for (RequestId id : ids) {
    if (plan.tokens >= budget) {
      break;
    }
    const Request& req = pool.Get(id);
    const int remaining = req.prompt_len - req.prefill_progress;
    const int take = std::min({remaining, per_request_cap, budget - plan.tokens});
    if (take > 0) {
      plan.chunks.push_back({id, take});
      plan.tokens += take;
    }
  }
  return plan;
}

void ApplyPrefillChunks(RequestPool& pool, ServingContext& ctx,
                        const std::vector<PrefillChunk>& chunks, SimTime end,
                        IterationRecord& record) {
  for (const PrefillChunk& c : chunks) {
    pool.AdvancePrefill(c.id, c.tokens);
    record.prefill_tokens += c.tokens;
    Request& req = pool.Get(c.id);
    if (req.PrefillDone()) {
      const Token first =
          DecodeOneToken(*ctx.target, req.stream_seed, req.output, ctx.mode, *ctx.rng);
      pool.CommitToken(c.id, first, end);
      ++record.committed_tokens;
    }
  }
}

void CommitDecodeToken(SimTime now, SimTime end, RequestPool& pool, ServingContext& ctx,
                       RequestId id, IterationRecord& record) {
  Request& req = pool.Get(id);
  ADASERVE_CHECK(req.state == RequestState::kRunning) << "decode on non-running " << id;
  if (req.decode_start_time < 0.0) {
    req.decode_start_time = now;
  }
  const Token token = DecodeOneToken(*ctx.target, req.stream_seed, req.output, ctx.mode, *ctx.rng);
  pool.CommitToken(id, token, end);
  ++record.committed_tokens;
}

void CommitVerifiedTree(SimTime now, SimTime end, RequestPool& pool, ServingContext& ctx,
                        RequestId id, const TokenTree& tree, const std::vector<char>& selected,
                        IterationRecord& record) {
  Request& req = pool.Get(id);
  if (req.decode_start_time < 0.0) {
    req.decode_start_time = now;
  }
  const VerifyResult verdict =
      VerifyTree(*ctx.target, req.stream_seed, req.output, tree, selected, ctx.mode, *ctx.rng);
  req.verifications += 1;
  req.accepted_tokens += static_cast<long>(verdict.accepted.size());
  req.verified_tokens += verdict.tokens_verified;
  record.verified_tokens += verdict.tokens_verified;
  for (Token t : verdict.accepted) {
    if (pool.Get(id).state != RequestState::kRunning) {
      return;  // Reached target length mid-path; surplus tokens are dropped.
    }
    pool.CommitToken(id, t, end);
    ++record.committed_tokens;
  }
  if (pool.Get(id).state == RequestState::kRunning) {
    pool.CommitToken(id, verdict.bonus, end);
    ++record.committed_tokens;
  }
}

SimTime NextTokenDeadline(const Request& req) {
  if (req.first_token_time >= 0.0) {
    return req.first_token_time + req.committed_len * req.tpot_slo;
  }
  return req.arrival + req.tpot_slo;
}

RequestPool::AdmissionRanker PriorityRanker(PriorityPolicy policy) {
  if (policy == PriorityPolicy::kFifo) {
    return nullptr;  // The pool's null-ranker path is exact arrival order.
  }
  if (policy == PriorityPolicy::kEdf) {
    return [](const Request& a, const Request& b) {
      return NextTokenDeadline(a) < NextTokenDeadline(b);
    };
  }
  return [](const Request& a, const Request& b) { return a.tpot_slo < b.tpot_slo; };
}

EvictionStyle PriorityEvictionStyle(PriorityPolicy policy) {
  return policy == PriorityPolicy::kSloUrgentPause ? EvictionStyle::kPause
                                                   : EvictionStyle::kRecompute;
}

RequestPool::VictimSelector PriorityVictimSelector(PriorityPolicy policy) {
  if (policy == PriorityPolicy::kFifo) {
    return nullptr;  // Pool default: newest-admitted zero-output request.
  }
  if (policy == PriorityPolicy::kEdf) {
    // The EDF analogue of the SLO-aware selector: the head may only
    // displace a prefilling zero-output request whose next-token deadline
    // is strictly *later* than its own; latest-deadline victims first,
    // the newest among equals (least prefill progress to redo).
    return [](const Request& head, const RequestPool& pool) {
      const SimTime head_deadline = NextTokenDeadline(head);
      RequestId victim = kInvalidRequestId;
      SimTime victim_deadline = 0.0;
      for (auto it = pool.active().rbegin(); it != pool.active().rend(); ++it) {
        const Request& req = pool.Get(*it);
        if (req.state != RequestState::kPrefilling || req.committed_len != 0) {
          continue;
        }
        const SimTime deadline = NextTokenDeadline(req);
        if (deadline <= head_deadline) {
          continue;
        }
        if (victim == kInvalidRequestId || deadline > victim_deadline) {
          victim = *it;
          victim_deadline = deadline;
        }
      }
      return victim;
    };
  }
  return [](const Request& head, const RequestPool& pool) {
    RequestId victim = kInvalidRequestId;
    // Newest-first scan, keeping the loosest-SLO candidate: the least
    // urgent prefilling request is recomputed first, and among equals the
    // newest loses (it has the least prefill progress to redo).
    for (auto it = pool.active().rbegin(); it != pool.active().rend(); ++it) {
      const Request& req = pool.Get(*it);
      if (req.state != RequestState::kPrefilling || req.committed_len != 0 ||
          req.tpot_slo <= head.tpot_slo) {
        continue;
      }
      if (victim == kInvalidRequestId || req.tpot_slo > pool.Get(victim).tpot_slo) {
        victim = *it;
      }
    }
    return victim;
  };
}

int TickAdmitPhase(SimTime now, RequestPool& pool, ServingContext& ctx, int* evicted,
                   int* paused) {
  if (ctx.pull_arrivals) {
    // Idempotent after the engine's boundary pull (same clock, unchanged
    // queue); makes the phase self-contained for drivers that skip it.
    ctx.pull_arrivals(now);
  }
  const TickPolicy& opts = ctx.tick;
  const PriorityPolicy policy = opts.priority();
  const RequestPool::AdmissionRanker rank = PriorityRanker(policy);
  int admitted = pool.AdmitUpTo(opts.max_active, rank);
  if (opts.max_evictions > 0) {
    const RequestPool::VictimSelector select_victim = PriorityVictimSelector(policy);
    const EvictionStyle style = PriorityEvictionStyle(policy);
    int* displaced = style == EvictionStyle::kPause ? paused : evicted;
    int evictions_left = opts.max_evictions;
    while (evictions_left > 0 && !pool.queued().empty()) {
      int displaced_now = 0;
      const RequestId id = pool.AdmitWithEviction(opts.max_active, evictions_left, &displaced_now,
                                                  rank, select_victim, style);
      evictions_left -= displaced_now;
      if (displaced != nullptr) {
        *displaced += displaced_now;
      }
      if (id == kInvalidRequestId) {
        break;
      }
      ++admitted;
      // The freed headroom may unblock plain admission too.
      admitted += pool.AdmitUpTo(opts.max_active, rank);
    }
  }
  return admitted;
}

int MidTickAdmitPhase(SimTime now, RequestPool& pool, ServingContext& ctx) {
  if (ctx.pull_arrivals) {
    ctx.pull_arrivals(now);
  }
  return pool.AdmitUpTo(ctx.tick.max_active, PriorityRanker(ctx.tick.priority()));
}

IterationRecord RunBudgetedPrefillPhase(SimTime now, RequestPool& pool, ServingContext& ctx,
                                        int budget, int burst) {
  IterationRecord record;
  std::vector<RequestId> prefilling = PrefillingRequests(pool);
  if (ctx.tick.priority() == PriorityPolicy::kEdf) {
    // EDF spends its prefill budget tightest-deadline-first instead of in
    // admission order; ids break deadline ties (ids are arrival order).
    std::sort(prefilling.begin(), prefilling.end(), [&pool](RequestId a, RequestId b) {
      const SimTime da = NextTokenDeadline(pool.Get(a));
      const SimTime db = NextTokenDeadline(pool.Get(b));
      return da != db ? da < db : a < b;
    });
  }
  const PrefillPlan plan = PlanPrefillChunks(pool, prefilling, budget, burst);
  if (plan.chunks.empty()) {
    return record;
  }
  std::vector<RequestId> ids;
  ids.reserve(plan.chunks.size());
  for (const PrefillChunk& c : plan.chunks) {
    ids.push_back(c.id);
  }
  const SimTime latency =
      ctx.target_latency->PrefillLatency(plan.tokens, pool.SumContextTokens(ids));
  ApplyPrefillChunks(pool, ctx, plan.chunks, now + latency, record);
  record.duration = latency;
  record.prefill_time = latency;
  return record;
}

TickResult RunContinuousTick(SimTime now, RequestPool& pool, ServingContext& ctx,
                             const TickPhaseFn& decode_phase) {
  int evicted = 0;
  int paused = 0;
  const int admitted = TickAdmitPhase(now, pool, ctx, &evicted, &paused);

  // Phase A: decode — every running request advances this tick.
  TickResult tick;
  tick.record = decode_phase(now, pool, ctx);
  IterationRecord& rec = tick.record;
  rec.admitted += admitted;
  rec.evicted += evicted;
  rec.paused += paused;
  const SimTime phase_a_end = now + rec.duration;

  // Phase B: mid-tick admission — arrivals that landed while phase A
  // occupied the GPU join this very tick's prefill pass.
  rec.admitted += MidTickAdmitPhase(phase_a_end, pool, ctx);

  // Phase C: burst-capped prefill on the leftover token budget. Phase A's
  // target-forward consumption is its batch roots plus every token
  // submitted to the verifier (committed tokens are drawn from the
  // verified ones, so they must not be double-counted). A floor of one
  // burst guarantees queued prompts keep making TTFT progress even when
  // decoding consumed the whole budget.
  const int leftover = ctx.verify_budget - rec.decode_requests - rec.verified_tokens;
  const int floor = ctx.tick.prefill_burst > 0 ? ctx.tick.prefill_burst : kBurst;
  const IterationRecord prefill = RunBudgetedPrefillPhase(
      phase_a_end, pool, ctx, std::max(leftover, floor), ctx.tick.prefill_burst);
  rec.duration += prefill.duration;
  rec.prefill_time += prefill.prefill_time;
  rec.prefill_tokens += prefill.prefill_tokens;
  rec.committed_tokens += prefill.committed_tokens;
  return tick;
}

IterationRecord Scheduler::DrainStep(SimTime now, RequestPool& pool, ServingContext& ctx) {
  IterationRecord record;
  if (RunFullPrefillIteration(now, pool, ctx, kMaxPrefillTokens, record)) {
    return record;
  }
  return DecodePhase(now, pool, ctx);
}

TickResult Scheduler::Tick(SimTime now, RequestPool& pool, ServingContext& ctx) {
  if (ctx.tick.continuous) {
    return RunContinuousTick(now, pool, ctx,
                             [this](SimTime t, RequestPool& p, ServingContext& c) {
                               return DecodePhase(t, p, c);
                             });
  }
  // Boundary mode: admission at tick start, then one drain-style
  // iteration — under BoundaryTickConfig() the exact sequence of the
  // historical engine loop.
  TickResult tick;
  IterationRecord& rec = tick.record;
  rec.admitted = TickAdmitPhase(now, pool, ctx, &rec.evicted, &rec.paused);
  if (!pool.active().empty()) {
    const IterationRecord admission = rec;
    rec = DrainStep(now, pool, ctx);
    rec.admitted += admission.admitted;
    rec.evicted += admission.evicted;
    rec.paused += admission.paused;
  }
  return tick;
}

}  // namespace adaserve
