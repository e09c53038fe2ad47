// SLO-aware admission priority and tick-native edge cases.
//
// Covers the tick-native default's new policy surface: per-category
// admission priorities (PriorityPolicy::kSloUrgentFirst) at the boundary
// and mid-tick admission phases, the SLO-aware evict-for-admission victim
// policy, and the tick edge cases around prefill_burst = 0, eviction
// budgets smaller than the victim set, and arrivals landing exactly on a
// phase boundary. The headline test is the paper's claim: under a bursty
// mixed-category workload, SLO-aware admission gives urgent requests
// strictly lower mean TTFT than FIFO admission.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tests/test_util.h"

namespace adaserve {
namespace {

// Index of the tightest-TPOT-SLO category of this experiment — what the
// kSloUrgentFirst policy treats as most urgent.
int UrgentCategory(const Experiment& exp) {
  const std::vector<CategorySpec> cats = exp.Categories();
  int urgent = 0;
  for (int c = 1; c < kNumCategories; ++c) {
    if (cats[static_cast<size_t>(c)].tpot_slo < cats[static_cast<size_t>(urgent)].tpot_slo) {
      urgent = c;
    }
  }
  return urgent;
}

// --- pool/phase-level fixtures ---

Request CategorizedRequest(RequestId id, int category, double tpot_slo, int prompt_len = 20,
                           int output_len = 4, SimTime arrival = 0.0) {
  Request req;
  req.id = id;
  req.category = category;
  req.tpot_slo = tpot_slo;
  req.arrival = arrival;
  req.prompt_len = prompt_len;
  req.target_output_len = output_len;
  req.stream_seed = static_cast<uint64_t>(id) ^ 0xabcd;
  return req;
}

constexpr double kUrgentSlo = 0.02;
constexpr double kRelaxedSlo = 0.15;

// Minimal ServingContext for exercising the admission phases directly:
// only the tick policy matters to them (no models, no arrival stream).
// max_evictions defaults to 0 so admission-only tests cannot evict.
ServingContext AdmitContext(int max_active, PriorityPolicy policy, int max_evictions = 0) {
  ServingContext ctx;
  ctx.tick.max_active = max_active;
  ctx.tick.admission_priority = policy;
  ctx.tick.max_evictions = max_evictions;
  return ctx;
}

TEST(PriorityAdmission, SloRankerAdmitsUrgentBeforeEarlierRelaxedArrivals) {
  KvCache kv(10000.0, 1.0, 16);
  RequestPool pool(&kv);
  // Two relaxed requests arrived first, one urgent last.
  pool.AddArrival(CategorizedRequest(0, kCatSummarization, kRelaxedSlo));
  pool.AddArrival(CategorizedRequest(1, kCatSummarization, kRelaxedSlo));
  pool.AddArrival(CategorizedRequest(2, kCatCoding, kUrgentSlo));

  ServingContext ctx = AdmitContext(/*max_active=*/1,  // One slot: order is observable.
                                    PriorityPolicy::kSloUrgentFirst);
  EXPECT_EQ(TickAdmitPhase(0.0, pool, ctx), 1);
  EXPECT_EQ(pool.active().front(), 2) << "urgent arrival must jump the queue";
  // FIFO would have admitted the oldest relaxed request instead.
  EXPECT_EQ(pool.Get(0).state, RequestState::kQueued);
}

TEST(PriorityAdmission, FifoPolicyKeepsArrivalOrder) {
  KvCache kv(10000.0, 1.0, 16);
  RequestPool pool(&kv);
  pool.AddArrival(CategorizedRequest(0, kCatSummarization, kRelaxedSlo));
  pool.AddArrival(CategorizedRequest(1, kCatCoding, kUrgentSlo));

  ServingContext ctx = AdmitContext(/*max_active=*/1, PriorityPolicy::kFifo);
  EXPECT_EQ(TickAdmitPhase(0.0, pool, ctx), 1);
  EXPECT_EQ(pool.active().front(), 0);
}

TEST(PriorityAdmission, EqualSlosBreakTiesByArrivalOrder) {
  KvCache kv(10000.0, 1.0, 16);
  RequestPool pool(&kv);
  pool.AddArrival(CategorizedRequest(0, kCatChat, kUrgentSlo));
  pool.AddArrival(CategorizedRequest(1, kCatChat, kUrgentSlo));

  ServingContext ctx = AdmitContext(/*max_active=*/1, PriorityPolicy::kSloUrgentFirst);
  EXPECT_EQ(TickAdmitPhase(0.0, pool, ctx), 1);
  EXPECT_EQ(pool.active().front(), 0) << "ranked admission must be stable";
}

TEST(SloAwareEviction, UrgentHeadEvictsLeastUrgentPrefillingVictim) {
  // 64-token cache: two relaxed 20+4 requests (32 rounded blocks each)
  // fill it; the urgent head needs one of them recomputed.
  KvCache kv(64.0, 1.0, 16);
  RequestPool pool(&kv);
  pool.AddArrival(CategorizedRequest(0, kCatChat, 0.05));
  pool.AddArrival(CategorizedRequest(1, kCatSummarization, kRelaxedSlo));
  pool.AddArrival(CategorizedRequest(2, kCatCoding, kUrgentSlo));
  ASSERT_EQ(pool.Admit(10, PriorityPolicy::kFifo), 2);

  int evicted = 0;
  EXPECT_EQ(pool.Admit(10, PriorityPolicy::kSloUrgentFirst, /*max_evictions=*/2, &evicted), 1);
  EXPECT_EQ(pool.Get(2).state, RequestState::kPrefilling);
  EXPECT_EQ(evicted, 1);
  // The loosest-SLO prefilling request lost, not the tighter chat one.
  EXPECT_EQ(pool.Get(1).state, RequestState::kQueued);
  EXPECT_EQ(pool.Get(1).prefill_progress, 0) << "recompute semantics";
  EXPECT_EQ(pool.Get(0).state, RequestState::kPrefilling);
}

TEST(SloAwareEviction, NonUrgentHeadCannotEvict) {
  KvCache kv(64.0, 1.0, 16);
  RequestPool pool(&kv);
  pool.AddArrival(CategorizedRequest(0, kCatChat, 0.05));
  pool.AddArrival(CategorizedRequest(1, kCatChat, 0.05));
  pool.AddArrival(CategorizedRequest(2, kCatSummarization, kRelaxedSlo));
  ASSERT_EQ(pool.Admit(10, PriorityPolicy::kFifo), 2);

  int evicted = 0;
  EXPECT_EQ(pool.Admit(10, PriorityPolicy::kSloUrgentFirst, /*max_evictions=*/4, &evicted), 0);
  EXPECT_EQ(evicted, 0) << "a relaxed head must not recompute tighter-SLO prefills";
  EXPECT_EQ(pool.queued().front(), 2) << "head back where it was";
  EXPECT_EQ(pool.Get(0).state, RequestState::kPrefilling);
  EXPECT_EQ(pool.Get(1).state, RequestState::kPrefilling);
}

TEST(SloAwareEviction, RunningRequestsAreNeverVictims) {
  KvCache kv(64.0, 1.0, 16);
  RequestPool pool(&kv);
  // A relaxed request that already produced output (running) and a
  // relaxed prefilling one; only the latter is evictable.
  pool.AddArrival(CategorizedRequest(0, kCatSummarization, kRelaxedSlo));
  pool.AddArrival(CategorizedRequest(1, kCatSummarization, kRelaxedSlo));
  pool.AddArrival(CategorizedRequest(2, kCatCoding, kUrgentSlo, /*prompt_len=*/40,
                                     /*output_len=*/8));
  ASSERT_EQ(pool.Admit(10, PriorityPolicy::kFifo), 2);
  pool.AdvancePrefill(0, 20);
  pool.CommitToken(0, 1, 0.1);  // r0 is running with committed output.

  int evicted = 0;
  // Evicting r1 frees 32 of the 48 the head needs — not enough, and r0 is
  // untouchable, so the head stays queued but the one legal eviction ran.
  EXPECT_EQ(pool.Admit(10, PriorityPolicy::kSloUrgentFirst, /*max_evictions=*/4, &evicted), 0);
  EXPECT_EQ(evicted, 1);
  EXPECT_EQ(pool.Get(0).state, RequestState::kRunning);
  EXPECT_EQ(pool.Get(1).state, RequestState::kQueued);
}

TEST(SloAwareEviction, EvictionBudgetSmallerThanVictimSetStopsEarly) {
  // The urgent head needs both relaxed prefills gone (48 tokens into a
  // 64-token cache), but the per-tick eviction budget only allows one.
  KvCache kv(64.0, 1.0, 16);
  RequestPool pool(&kv);
  // The relaxed requests are already admitted (prefilling) when the
  // urgent one arrives — the fresh urgent head can only get in by
  // evicting BOTH of them, but the tick's budget allows one eviction.
  pool.AddArrival(CategorizedRequest(0, kCatSummarization, kRelaxedSlo));
  pool.AddArrival(CategorizedRequest(1, kCatSummarization, kRelaxedSlo));
  ASSERT_EQ(pool.Admit(10, PriorityPolicy::kFifo), 2);
  pool.AddArrival(CategorizedRequest(2, kCatCoding, kUrgentSlo, /*prompt_len=*/40,
                                     /*output_len=*/8));

  ServingContext ctx = AdmitContext(/*max_active=*/10, PriorityPolicy::kSloUrgentFirst,
                                    /*max_evictions=*/1);
  int evicted = 0;
  const int admitted = TickAdmitPhase(0.0, pool, ctx, &evicted);
  EXPECT_EQ(admitted, 0) << "one eviction frees too little KV for the head";
  EXPECT_EQ(evicted, 1) << "budget caps evictions below the victim set";
  // Head still queued, in front of the one evicted victim.
  ASSERT_EQ(pool.queued().size(), 2u);
  EXPECT_EQ(pool.queued()[0], 2);
  EXPECT_EQ(pool.queued()[1], 1);
  // Next tick, with a fresh eviction budget, the head gets in.
  evicted = 0;
  EXPECT_EQ(TickAdmitPhase(0.0, pool, ctx, &evicted), 1);
  EXPECT_EQ(evicted, 1);
  EXPECT_EQ(pool.Get(2).state, RequestState::kPrefilling);
}

TEST(SloAwareEviction, VictimsReadmitInArrivalOrderBehindUrgentHead) {
  // Two relaxed victims evicted for one urgent head: they requeue in
  // arrival order behind the head, and — once capacity returns — ranked
  // admission re-admits them in that same order (equal SLOs tie-break by
  // queue position).
  KvCache kv(96.0, 1.0, 16);
  RequestPool pool(&kv);
  pool.AddArrival(CategorizedRequest(0, kCatSummarization, kRelaxedSlo));
  pool.AddArrival(CategorizedRequest(1, kCatSummarization, kRelaxedSlo));
  pool.AddArrival(CategorizedRequest(2, kCatCoding, kUrgentSlo, /*prompt_len=*/60,
                                     /*output_len=*/20));  // 80 tokens: needs both slots
  ASSERT_EQ(pool.Admit(10, PriorityPolicy::kFifo), 2);

  ServingContext ctx = AdmitContext(/*max_active=*/10, PriorityPolicy::kSloUrgentFirst,
                                    /*max_evictions=*/4);
  int evicted = 0;
  EXPECT_EQ(TickAdmitPhase(0.0, pool, ctx, &evicted), 1);
  EXPECT_EQ(evicted, 2);
  EXPECT_EQ(pool.Get(2).state, RequestState::kPrefilling);
  // Victims wait in arrival order.
  ASSERT_EQ(pool.queued().size(), 2u);
  EXPECT_EQ(pool.queued()[0], 0);
  EXPECT_EQ(pool.queued()[1], 1);
  // Finish the urgent request to free its KV, then re-admit.
  pool.Get(2).prefill_progress = 60;
  pool.Get(2).state = RequestState::kRunning;
  for (int i = 0; i < 20; ++i) {
    pool.CommitToken(2, 1, 0.5 + 0.01 * i);
  }
  ASSERT_EQ(pool.Get(2).state, RequestState::kFinished);
  EXPECT_EQ(pool.Admit(10, PriorityPolicy::kSloUrgentFirst), 2);
  ASSERT_EQ(pool.active().size(), 2u);
  EXPECT_EQ(pool.active()[0], 0) << "victims re-admit in arrival order";
  EXPECT_EQ(pool.active()[1], 1);
}

// --- preemptive (pause-style) eviction ---

TEST(PreemptivePause, PauseKeepsPrefillProgressAndResumesWhereItLeftOff) {
  KvCache kv(64.0, 1.0, 16);
  RequestPool pool(&kv);
  pool.AddArrival(CategorizedRequest(0, kCatSummarization, kRelaxedSlo));
  ASSERT_EQ(pool.Admit(10, PriorityPolicy::kFifo), 1);
  pool.AdvancePrefill(0, 12);  // Mid-prefill: 12 of 20 prompt tokens done.
  ASSERT_GT(kv.used_tokens(), 0);

  pool.Pause(0);
  EXPECT_EQ(pool.Get(0).state, RequestState::kPaused);
  EXPECT_EQ(pool.Get(0).prefill_progress, 12) << "pause must keep prompt work";
  EXPECT_EQ(kv.used_tokens(), 0) << "pause swaps the KV out";
  EXPECT_EQ(pool.queued().front(), 0) << "paused request waits at the queue front";

  // Re-admission resumes prefilling from token 12 — recompute would have
  // restarted from 0.
  EXPECT_EQ(pool.Admit(10, PriorityPolicy::kFifo), 1);
  EXPECT_EQ(pool.Get(0).state, RequestState::kPrefilling);
  EXPECT_EQ(pool.Get(0).prefill_progress, 12) << "resume where it left off";
  pool.AdvancePrefill(0, 8);
  EXPECT_TRUE(pool.Get(0).PrefillDone()) << "only the remaining 8 tokens were owed";
}

TEST(PreemptivePause, UrgentHeadPausesLeastUrgentVictimUnderPausePolicy) {
  // Same KV-pressure shape as the recompute-eviction test, but under
  // kSloUrgentPause: the victim is paused, not recomputed, and the tick
  // counts it as paused rather than evicted.
  KvCache kv(64.0, 1.0, 16);
  RequestPool pool(&kv);
  pool.AddArrival(CategorizedRequest(0, kCatChat, 0.05));
  pool.AddArrival(CategorizedRequest(1, kCatSummarization, kRelaxedSlo));
  ASSERT_EQ(pool.Admit(10, PriorityPolicy::kFifo), 2);
  pool.AdvancePrefill(1, 8);  // The future victim has partial prompt work.
  pool.AddArrival(CategorizedRequest(2, kCatCoding, kUrgentSlo));

  ServingContext ctx = AdmitContext(/*max_active=*/10, PriorityPolicy::kSloUrgentPause,
                                    /*max_evictions=*/2);
  int evicted = 0;
  int paused = 0;
  EXPECT_EQ(TickAdmitPhase(0.0, pool, ctx, &evicted, &paused), 1);
  EXPECT_EQ(evicted, 0) << "pause policy never recompute-evicts";
  EXPECT_EQ(paused, 1);
  EXPECT_EQ(pool.Get(2).state, RequestState::kPrefilling) << "urgent head got in";
  // The loosest-SLO prefilling victim was paused with its progress intact.
  EXPECT_EQ(pool.Get(1).state, RequestState::kPaused);
  EXPECT_EQ(pool.Get(1).prefill_progress, 8) << "no prompt work was lost";
  EXPECT_EQ(pool.Get(0).state, RequestState::kPrefilling) << "tighter-SLO peer untouched";
}

TEST(PreemptivePause, PauseBudgetCapsLikeEvictionsAndVictimsResume) {
  // The urgent head needs both relaxed prefills' KV (48 of 64 tokens) but
  // the per-tick budget allows one pause; the next tick finishes the job
  // and both victims later resume with their progress intact.
  KvCache kv(64.0, 1.0, 16);
  RequestPool pool(&kv);
  pool.AddArrival(CategorizedRequest(0, kCatSummarization, kRelaxedSlo));
  pool.AddArrival(CategorizedRequest(1, kCatSummarization, kRelaxedSlo));
  ASSERT_EQ(pool.Admit(10, PriorityPolicy::kFifo), 2);
  pool.AdvancePrefill(0, 6);
  pool.AdvancePrefill(1, 10);
  pool.AddArrival(CategorizedRequest(2, kCatCoding, kUrgentSlo, /*prompt_len=*/40,
                                     /*output_len=*/8));

  ServingContext ctx = AdmitContext(/*max_active=*/10, PriorityPolicy::kSloUrgentPause,
                                    /*max_evictions=*/1);
  int evicted = 0;
  int paused = 0;
  EXPECT_EQ(TickAdmitPhase(0.0, pool, ctx, &evicted, &paused), 0)
      << "one pause frees too little KV for the head";
  EXPECT_EQ(paused, 1) << "the eviction budget caps pauses identically";
  EXPECT_EQ(evicted, 0);
  paused = 0;
  EXPECT_EQ(TickAdmitPhase(0.0, pool, ctx, &evicted, &paused), 1);
  EXPECT_EQ(paused, 1);
  EXPECT_EQ(pool.Get(2).state, RequestState::kPrefilling);
  // Both victims paused, each with its own partial progress preserved.
  EXPECT_EQ(pool.Get(0).state, RequestState::kPaused);
  EXPECT_EQ(pool.Get(0).prefill_progress, 6);
  EXPECT_EQ(pool.Get(1).state, RequestState::kPaused);
  EXPECT_EQ(pool.Get(1).prefill_progress, 10);
  // Drain the urgent request; the victims resume behind it and finish
  // their prompts having prefilled exactly prompt_len tokens in total.
  pool.Get(2).prefill_progress = 40;
  pool.Get(2).state = RequestState::kRunning;
  for (int i = 0; i < 8; ++i) {
    pool.CommitToken(2, 1, 0.5 + 0.01 * i);
  }
  ASSERT_EQ(pool.Get(2).state, RequestState::kFinished);
  EXPECT_EQ(pool.Admit(10, PriorityPolicy::kSloUrgentPause), 2);
  EXPECT_EQ(pool.Get(0).state, RequestState::kPrefilling);
  EXPECT_EQ(pool.Get(0).prefill_progress, 6);
  pool.AdvancePrefill(0, 14);  // 6 + 14 == 20: only the remainder is owed.
  EXPECT_TRUE(pool.Get(0).PrefillDone());
}

// --- tick edge cases ---

class TickEdgeCaseTest : public ::testing::Test {
 protected:
  TickEdgeCaseTest()
      : exp_(TestSetup()),
        kv_(exp_.target_latency().KvCacheBytes(),
            exp_.target_latency().model().KvBytesPerToken()),
        pool_(&kv_),
        rng_(7) {
    ctx_.target = &exp_.target();
    ctx_.draft = &exp_.draft();
    ctx_.target_latency = &exp_.target_latency();
    ctx_.draft_latency = &exp_.draft_latency();
    ctx_.mode = DecodeMode::kStochastic;
    ctx_.rng = &rng_;
    ctx_.tick.max_active = 100;
    ctx_.tick.continuous = true;
  }

  Experiment exp_;
  KvCache kv_;
  RequestPool pool_;
  Rng rng_;
  ServingContext ctx_;
};

TEST_F(TickEdgeCaseTest, UrgentArrivalExactlyOnPhaseBoundaryJoinsSameTick) {
  // A decode phase of exactly 1.0 s: an urgent request whose arrival is
  // exactly the phase's end time must be admitted by the mid-tick phase
  // (arrival <= t is inclusive) and prefilled in the same tick.
  std::vector<Request> arrivals = {
      CategorizedRequest(0, kCatCoding, kUrgentSlo, /*prompt_len=*/16, /*output_len=*/4,
                         /*arrival=*/1.0)};
  size_t next = 0;
  ctx_.pull_arrivals = [&](SimTime t) {
    int pulled = 0;
    while (next < arrivals.size() && arrivals[next].arrival <= t) {
      pool_.AddArrival(arrivals[next++]);
      ++pulled;
    }
    return pulled;
  };
  ctx_.tick.admission_priority = PriorityPolicy::kSloUrgentFirst;
  ctx_.tick.prefill_burst = 16;
  ctx_.verify_budget = 64;
  const TickResult tick = RunContinuousTick(
      0.0, pool_, ctx_, [](SimTime, RequestPool&, ServingContext&) {
        IterationRecord rec;
        rec.duration = 1.0;  // Synthetic phase A ending exactly at the arrival.
        return rec;
      });
  EXPECT_TRUE(tick.MadeProgress());
  EXPECT_EQ(tick.record.admitted, 1) << "boundary-exact arrival must not wait a tick";
  EXPECT_EQ(pool_.Get(0).prefill_progress, 16);
  // One tick later and the arrival would have been a boundary admission;
  // landing exactly on the edge must behave like any mid-tick arrival.
  EXPECT_EQ(tick.record.prefill_tokens, 16);
}

TEST_F(TickEdgeCaseTest, PrefillBurstZeroMeansUncappedPerRequest) {
  // prefill_burst = 0 disables the per-request cap; the phase budget
  // still bounds the pass, and the floor falls back to kBurst.
  std::vector<Request> reqs = {CategorizedRequest(0, kCatChat, 0.05, /*prompt_len=*/300)};
  pool_.AddArrival(reqs[0]);
  pool_.Admit(100, PriorityPolicy::kFifo);
  ctx_.tick.prefill_burst = 0;
  ctx_.verify_budget = 64;
  const TickResult tick = RunContinuousTick(
      0.0, pool_, ctx_, [](SimTime, RequestPool&, ServingContext&) {
        return IterationRecord{};  // Nothing running: decode phase is empty.
      });
  // Budget floor is kBurst (512), burst uncapped: the whole 300-token
  // prompt lands in one pass.
  EXPECT_EQ(tick.record.prefill_tokens, 300);
  EXPECT_TRUE(pool_.Get(0).PrefillDone());
}

TEST_F(TickEdgeCaseTest, PrefillBurstZeroDrainsEndToEnd) {
  EngineConfig engine;
  engine.tick.prefill_burst = 0;
  VllmScheduler scheduler;
  const std::vector<Request> workload = SmallMixedWorkload(exp_);
  const LoggedRun run = RunLogged(exp_, scheduler, workload, engine);
  EXPECT_EQ(run.result.metrics.finished, static_cast<int>(workload.size()));
  for (const IterationRecord& rec : run.ticks) {
    EXPECT_GT(rec.duration, 0.0);
  }
}

// --- engine-level policy tests ---

class PriorityPolicyEngineTest : public ::testing::Test {
 protected:
  PriorityPolicyEngineTest() : exp_(TestSetup()) {}

  // Bursty mixed-category stream: ON/OFF arrivals whose ON rate swamps
  // the slot cap, so the admission queue actually backs up and admission
  // ORDER becomes visible in TTFT.
  std::unique_ptr<ArrivalStream> BurstyMixedStream() const {
    MmppStreamConfig config;
    config.mmpp.state_rps = {2.0, 30.0};
    config.mmpp.mean_sojourn_s = {1.5, 1.0};
    config.duration = 8.0;
    config.trace_seed = 11;
    config.mix = {0.4, 0.3, 0.3};
    return MakeMmppStream(exp_.Categories(), config);
  }

  EngineResult RunWithPolicy(Scheduler& scheduler, PriorityPolicy policy,
                             bool continuous = true) const {
    EngineConfig engine;
    engine.tick.continuous = continuous;
    engine.tick.max_active = 8;  // Small slot cap: queueing dominates.
    engine.tick.admission_priority = policy;
    auto stream = BurstyMixedStream();
    return exp_.Run(scheduler, *stream, engine);
  }

  Experiment exp_;
};

// The acceptance claim of the SLO-aware policy: under a bursty
// mixed-category workload, urgent requests see strictly lower mean TTFT
// than under FIFO admission — the separation the drain-style loop could
// not produce.
TEST_F(PriorityPolicyEngineTest, SloAwareAdmissionLowersUrgentMeanTtftVsFifo) {
  const int urgent = UrgentCategory(exp_);

  VllmScheduler fifo_scheduler;
  const EngineResult fifo = RunWithPolicy(fifo_scheduler, PriorityPolicy::kFifo);
  VllmScheduler slo_scheduler;
  const EngineResult slo = RunWithPolicy(slo_scheduler, PriorityPolicy::kSloUrgentFirst);

  ASSERT_EQ(fifo.metrics.finished, slo.metrics.finished) << "both policies must drain the trace";
  const Samples& fifo_ttft = fifo.metrics.per_category[static_cast<size_t>(urgent)].ttft_ms;
  const Samples& slo_ttft = slo.metrics.per_category[static_cast<size_t>(urgent)].ttft_ms;
  ASSERT_GT(fifo_ttft.count(), 0u);
  ASSERT_EQ(fifo_ttft.count(), slo_ttft.count());
  EXPECT_LT(slo_ttft.Mean(), fifo_ttft.Mean())
      << "SLO-aware admission must strictly improve urgent mean TTFT";
}

// EngineConfig{} defers to the scheduler's own AdmissionPriority():
// AdaServe's default run is byte-identical to forcing kSloUrgentFirst,
// vLLM's to forcing kFifo.
TEST_F(PriorityPolicyEngineTest, SchedulerDefaultsResolveWhenConfigUnset) {
  const std::vector<Request> workload = SmallMixedWorkload(exp_);

  AdaServeScheduler ada_default;
  const EngineResult ada_a = exp_.Run(ada_default, workload);
  AdaServeScheduler ada_forced;
  EngineConfig force_slo;
  force_slo.tick.admission_priority = PriorityPolicy::kSloUrgentFirst;
  const EngineResult ada_b = exp_.Run(ada_forced, workload, force_slo);
  EXPECT_EQ(GoldenMetricsText(SystemKind::kAdaServe, ada_a.metrics),
            GoldenMetricsText(SystemKind::kAdaServe, ada_b.metrics));

  VllmScheduler vllm_default;
  const EngineResult vllm_a = exp_.Run(vllm_default, workload);
  VllmScheduler vllm_forced;
  EngineConfig force_fifo;
  force_fifo.tick.admission_priority = PriorityPolicy::kFifo;
  const EngineResult vllm_b = exp_.Run(vllm_forced, workload, force_fifo);
  EXPECT_EQ(GoldenMetricsText(SystemKind::kVllm, vllm_a.metrics),
            GoldenMetricsText(SystemKind::kVllm, vllm_b.metrics));
}

// Boundary mode serves the TickPolicy it is given, like tick-native mode:
// ResolvedFor keeps an explicit admission priority and eviction budget
// (an unset priority still defers to the scheduler), ranked admission
// changes who waits, and the boundary tick counts the pauses its
// admission phase makes.
TEST_F(PriorityPolicyEngineTest, BoundaryModeHonoursTickPolicy) {
  VllmScheduler vllm;
  TickPolicy policy = BoundaryTickConfig().tick;
  policy.admission_priority = PriorityPolicy::kSloUrgentPause;
  policy.max_evictions = 2;
  const TickPolicy resolved = policy.ResolvedFor(vllm);
  EXPECT_FALSE(resolved.continuous);
  EXPECT_EQ(resolved.priority(), PriorityPolicy::kSloUrgentPause);
  EXPECT_EQ(resolved.max_evictions, 2);
  AdaServeScheduler adaserve;
  policy.admission_priority.reset();
  EXPECT_EQ(policy.ResolvedFor(adaserve).priority(), PriorityPolicy::kSloUrgentFirst);

  // Engine level: SLO-aware admission at the boundary lowers urgent TTFT.
  const int urgent = UrgentCategory(exp_);
  VllmScheduler fifo_scheduler;
  const EngineResult fifo = RunWithPolicy(fifo_scheduler, PriorityPolicy::kFifo, false);
  VllmScheduler slo_scheduler;
  const EngineResult slo = RunWithPolicy(slo_scheduler, PriorityPolicy::kSloUrgentFirst, false);
  ASSERT_EQ(fifo.metrics.finished, slo.metrics.finished);
  EXPECT_LT(slo.metrics.per_category[static_cast<size_t>(urgent)].ttft_ms.Mean(),
            fifo.metrics.per_category[static_cast<size_t>(urgent)].ttft_ms.Mean());

  // Tick level: the KV-pressure shape of
  // UrgentHeadPausesLeastUrgentVictimUnderPausePolicy, served by one
  // boundary tick under the resolved pause policy.
  KvCache kv(64.0, 1.0, 16);
  RequestPool pool(&kv);
  pool.AddArrival(CategorizedRequest(0, kCatChat, 0.05));
  pool.AddArrival(CategorizedRequest(1, kCatSummarization, kRelaxedSlo));
  ASSERT_EQ(pool.Admit(10, PriorityPolicy::kFifo), 2);
  pool.AdvancePrefill(1, 8);
  pool.AddArrival(CategorizedRequest(2, kCatCoding, kUrgentSlo));
  Rng rng(7);
  ServingContext ctx;
  ctx.target = &exp_.target();
  ctx.draft = &exp_.draft();
  ctx.target_latency = &exp_.target_latency();
  ctx.draft_latency = &exp_.draft_latency();
  ctx.rng = &rng;
  ctx.tick = resolved;
  const TickResult tick = vllm.Tick(0.0, pool, ctx);
  EXPECT_TRUE(tick.MadeProgress());
  EXPECT_EQ(tick.record.admitted, 1);
  EXPECT_EQ(tick.record.paused, 1);
  EXPECT_EQ(tick.record.evicted, 0);
  EXPECT_EQ(pool.Get(1).state, RequestState::kPaused);
  EXPECT_EQ(pool.Get(1).prefill_progress, 8);
}

}  // namespace
}  // namespace adaserve
