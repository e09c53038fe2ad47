#include "src/serve/engine.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace adaserve {

Engine::Engine(const SyntheticLm* target, const DraftLm* draft, const LatencyModel* target_latency,
               const LatencyModel* draft_latency, const EngineConfig& config)
    : target_(target),
      draft_(draft),
      target_latency_(target_latency),
      draft_latency_(draft_latency),
      config_(config) {
  ADASERVE_CHECK(target_ != nullptr && draft_ != nullptr) << "engine needs both models";
  ADASERVE_CHECK(target_latency_ != nullptr && draft_latency_ != nullptr)
      << "engine needs both latency models";
  ADASERVE_CHECK(config_.arrival_horizon >= 0) << "negative arrival horizon";
}

EngineResult Engine::Run(Scheduler& scheduler, WorkloadSource source, int verify_budget,
                         int draft_budget) {
  ArrivalStream& stream = source.stream();
  KvCache kv(target_latency_->KvCacheBytes(), target_latency_->model().KvBytesPerToken());
  RequestPool pool(&kv);
  pool.set_release_payload_on_finish(config_.retire_finished);
  Rng rng(config_.sampling_seed);

  ServingContext ctx;
  ctx.target = target_;
  ctx.draft = draft_;
  ctx.target_latency = target_latency_;
  ctx.draft_latency = draft_latency_;
  ctx.mode = config_.mode;
  ctx.verify_budget = verify_budget > 0 ? verify_budget : DeriveTokenBudget(*target_latency_);
  ctx.draft_budget =
      draft_budget > 0 ? draft_budget : DeriveDraftBudget(*target_latency_, *draft_latency_);
  ctx.rng = &rng;
  // The whole tick policy crosses the engine boundary as one value:
  // ResolvedFor fills an unset admission priority from the scheduler's
  // default and leaves every explicit knob alone, in both modes.
  ctx.tick = config_.tick.ResolvedFor(scheduler);

  // Pull until this many requests sit in the admission queue: admission can
  // consume at most tick.max_active per tick, so holding that many plus
  // the horizon makes lazy injection indistinguishable from the old
  // inject-everything-due loop.
  const size_t pull_target = static_cast<size_t>(ctx.tick.max_active) +
                             static_cast<size_t>(config_.arrival_horizon);
  SimTime last_arrival = 0.0;
  // Makes arrivals due by `t` visible in the admission queue, bounded by
  // the horizon. Shared between the engine's boundary pull and the
  // scheduler's mid-tick admission phase (tick-native mode).
  // Arrivals pulled since the last traced tick; charged to the next
  // progressing tick by the trace sink (boundary + mid-tick pulls alike).
  int pulls_since_tick = 0;
  auto pull_arrivals = [&](SimTime t) {
    int pulled = 0;
    while (!stream.Exhausted() && stream.Peek()->arrival <= t &&
           pool.queued().size() < pull_target) {
      Request req = stream.Next();
      ADASERVE_CHECK(req.arrival >= last_arrival)
          << "stream arrivals must be nondecreasing; got " << req.arrival << " after "
          << last_arrival;
      last_arrival = req.arrival;
      if (config_.trace_sink != nullptr) {
        config_.trace_sink->OnArrival(req);
      }
      pool.AddArrival(req);
      ++pulled;
    }
    pulls_since_tick += pulled;
    return pulled;
  };
  ctx.pull_arrivals = pull_arrivals;

  MetricsAccumulator acc;
  auto retire_sink = [&acc](const Request& req) { acc.AddRequest(req); };

  EngineResult result;
  SimTime now = 0.0;
  long iterations = 0;
  long traced_ticks = 0;
  while (!stream.Exhausted() || pool.HasWork()) {
    ADASERVE_CHECK(++iterations <= config_.max_iterations) << "iteration budget exhausted";
    pull_arrivals(now);
    if (!pool.HasWork()) {
      // Next-event skip: with nothing queued and nothing active a tick
      // cannot change state, so the earliest event is the next arrival —
      // jump the clock there in one step. The loop condition plus the
      // empty pool guarantee the stream still has requests, and the pull
      // loop above guarantees that arrival is strictly in the future.
      now = stream.Peek()->arrival;
      continue;
    }
    const TickResult tick = scheduler.Tick(now, pool, ctx);
    result.peak_resident_requests = std::max(result.peak_resident_requests, pool.resident_count());
    if (!tick.MadeProgress()) {
      // A no-progress tick is legal only on an empty pool. Active work
      // always runs, and admission cannot block with an empty active set
      // given worst-case reservations.
      ADASERVE_CHECK(pool.active().empty()) << scheduler.name() << " made no progress";
      ADASERVE_CHECK(pool.queued().empty()) << "admission deadlock";
      continue;
    }
    if (config_.trace_sink != nullptr) {
      TickTraceEvent event;
      event.index = traced_ticks++;
      event.start = now;
      event.record = tick.record;
      event.arrivals_pulled = pulls_since_tick;
      config_.trace_sink->OnTick(event);
      pulls_since_tick = 0;
    }
    now += tick.record.duration;
    acc.AddIteration(tick.record);
    if (config_.retire_finished) {
      pool.RetireFinishedPrefix(retire_sink);
    }
  }
  result.end_time = now;
  result.total_iterations = iterations;
  if (config_.retire_finished) {
    pool.RetireFinishedPrefix(retire_sink);
    ADASERVE_CHECK(pool.resident_count() == 0) << "undrained pool at end of run";
  } else {
    for (const Request& req : pool.requests()) {
      acc.AddRequest(req);
    }
    result.requests.assign(pool.requests().begin(), pool.requests().end());
  }
  result.metrics = acc.Finalize(now);
  return result;
}

}  // namespace adaserve
