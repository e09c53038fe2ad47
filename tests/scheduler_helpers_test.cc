#include "src/serve/scheduler.h"

#include <gtest/gtest.h>

#include "src/spec/verifier.h"
#include "tests/test_util.h"

namespace adaserve {
namespace {

class SchedulerHelpersTest : public ::testing::Test {
 protected:
  SchedulerHelpersTest()
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
  }

  void AddAndAdmit(int n, int prompt_len = 64, int output_len = 8) {
    const std::vector<Request> reqs =
        UniformWorkload(exp_, n, kCatChat, 0.0, prompt_len, output_len);
    for (const Request& r : reqs) {
      pool_.AddArrival(r);
    }
    pool_.Admit(100, PriorityPolicy::kFifo);
  }

  Experiment exp_;
  KvCache kv_;
  RequestPool pool_;
  Rng rng_;
  ServingContext ctx_;
};

TEST_F(SchedulerHelpersTest, RunningAndPrefillingPartitions) {
  AddAndAdmit(3);
  EXPECT_EQ(PrefillingRequests(pool_).size(), 3u);
  EXPECT_TRUE(RunningRequests(pool_).empty());
  pool_.AdvancePrefill(0, 64);
  EXPECT_EQ(PrefillingRequests(pool_).size(), 2u);
  EXPECT_EQ(RunningRequests(pool_).size(), 1u);
}

TEST_F(SchedulerHelpersTest, FullPrefillIterationCompletesPromptsAndEmitsFirstToken) {
  AddAndAdmit(2);
  IterationRecord record;
  ASSERT_TRUE(RunFullPrefillIteration(0.0, pool_, ctx_, 4096, record));
  EXPECT_EQ(record.prefill_tokens, 128);
  EXPECT_GT(record.duration, 0.0);
  EXPECT_EQ(record.committed_tokens, 2);
  for (RequestId id : {RequestId{0}, RequestId{1}}) {
    EXPECT_TRUE(pool_.Get(id).PrefillDone());
    EXPECT_EQ(pool_.Get(id).output_len(), 1);
    EXPECT_NEAR(pool_.Get(id).first_token_time, record.duration, 1e-12);
  }
}

TEST_F(SchedulerHelpersTest, FullPrefillRespectsTokenCap) {
  AddAndAdmit(3, /*prompt_len=*/100);
  IterationRecord record;
  ASSERT_TRUE(RunFullPrefillIteration(0.0, pool_, ctx_, /*max_prefill_tokens=*/250, record));
  EXPECT_EQ(record.prefill_tokens, 200);  // two whole prompts fit, not three
  EXPECT_EQ(PrefillingRequests(pool_).size(), 1u);
}

TEST_F(SchedulerHelpersTest, OversizedPromptStillProgresses) {
  AddAndAdmit(1, /*prompt_len=*/5000);
  IterationRecord record;
  ASSERT_TRUE(RunFullPrefillIteration(0.0, pool_, ctx_, /*max_prefill_tokens=*/1000, record));
  EXPECT_EQ(record.prefill_tokens, 5000);  // at least one prompt always runs
}

TEST_F(SchedulerHelpersTest, NoPrefillWorkReturnsFalse) {
  AddAndAdmit(1);
  pool_.AdvancePrefill(0, 64);
  IterationRecord record;
  EXPECT_FALSE(RunFullPrefillIteration(0.0, pool_, ctx_, 4096, record));
}

TEST_F(SchedulerHelpersTest, DecodeIterationCommitsOneTokenEach) {
  AddAndAdmit(3);
  for (RequestId id : {RequestId{0}, RequestId{1}, RequestId{2}}) {
    pool_.AdvancePrefill(id, 64);
    pool_.CommitToken(id, 1, 0.0);
  }
  const std::vector<RequestId> running = RunningRequests(pool_);
  const IterationRecord record = RunDecodeIteration(0.5, pool_, ctx_, running);
  EXPECT_EQ(record.committed_tokens, 3);
  EXPECT_EQ(record.decode_requests, 3);
  EXPECT_GT(record.duration, 0.0);
  for (RequestId id : running) {
    EXPECT_EQ(pool_.Get(id).output_len(), 2);
    EXPECT_NEAR(pool_.Get(id).token_times.back(), 0.5 + record.duration, 1e-12);
    EXPECT_EQ(pool_.Get(id).decode_start_time, 0.5);
  }
}

TEST_F(SchedulerHelpersTest, DecodeIterationEmptyBatchIsNoOp) {
  const IterationRecord record = RunDecodeIteration(0.0, pool_, ctx_, {});
  EXPECT_EQ(record.duration, 0.0);
  EXPECT_EQ(record.committed_tokens, 0);
}

TEST_F(SchedulerHelpersTest, DecodeLatencyGrowsWithBatch) {
  AddAndAdmit(20, /*prompt_len=*/64, /*output_len=*/100);
  std::vector<RequestId> all;
  for (RequestId id = 0; id < 20; ++id) {
    pool_.AdvancePrefill(id, 64);
    pool_.CommitToken(id, 1, 0.0);
    all.push_back(id);
  }
  const std::vector<RequestId> two(all.begin(), all.begin() + 2);
  const IterationRecord small = RunDecodeIteration(0.0, pool_, ctx_, two);
  const IterationRecord big = RunDecodeIteration(1.0, pool_, ctx_, all);
  EXPECT_GT(big.duration, small.duration);
}

// DraftTreeTime is the one draft-cost rule of every tree system; each case
// must reproduce its system's historical per-step sum bit for bit.
TEST_F(SchedulerHelpersTest, DraftTreeTimeOfChainIsThePerStepChainSum) {
  const LatencyModel& draft = exp_.draft_latency();
  const int n = 5;
  const long context = 1234;
  SimTime want = 0.0;
  for (int step = 0; step < 4; ++step) {
    want += draft.ForwardLatency(n, context + n * step, /*use_cuda_graph=*/true);
  }
  EXPECT_EQ(DraftTreeTime(draft, n, context, std::vector<int>{1, 1, 1, 1}), want);
}

TEST_F(SchedulerHelpersTest, DraftTreeTimeOfBeamIsAdaServesRootsThenBeamSteps) {
  const LatencyModel& draft = exp_.draft_latency();
  const int n = 7;
  const int w = 3;
  const long context = 4321;
  SimTime want = draft.ForwardLatency(n, context, /*use_cuda_graph=*/true);
  for (int step = 1; step < 3; ++step) {
    want += draft.ForwardLatency(n * w, context + n * step, /*use_cuda_graph=*/true);
  }
  EXPECT_EQ(DraftTreeTime(draft, n, context, std::vector<int>{1, w, w}), want);
}

TEST_F(SchedulerHelpersTest, DraftTreeTimeGrowsTheContextOfEveryLevel) {
  // A (3, 2) static tree drafts the n roots, then the 3n level-one nodes;
  // the second pass sees the n tokens the first one added.
  const LatencyModel& draft = exp_.draft_latency();
  const int n = 64;
  const long context = 20000;
  const SimTime got = DraftTreeTime(draft, n, context, std::vector<int>{1, 3});
  EXPECT_EQ(got, draft.ForwardLatency(n, context, true) +
                     draft.ForwardLatency(3 * n, context + n, true));
  EXPECT_GT(got, draft.ForwardLatency(n, context, true) +
                     draft.ForwardLatency(3 * n, context, true));
  EXPECT_EQ(DraftTreeTime(draft, n, context, {}), 0.0);
}

TEST_F(SchedulerHelpersTest, VerifiedTreeCommitStopsAtOutputLength) {
  // A request two tokens short of its output length verifies a depth-4
  // chain that greedy decoding accepts in full: exactly two path tokens
  // commit, the request finishes, and no bonus token follows.
  AddAndAdmit(1, /*prompt_len=*/64, /*output_len=*/4);
  pool_.AdvancePrefill(0, 64);
  pool_.CommitToken(0, 1, 0.0);
  pool_.CommitToken(0, 2, 0.0);
  ctx_.mode = DecodeMode::kGreedy;
  // The chain the target itself decodes greedily after the committed prefix.
  std::vector<Token> greedy = pool_.Get(0).output;
  TokenTree chain(greedy.back());
  NodeId node = kRootNode;
  Rng chain_rng(1);
  for (int depth = 0; depth < 4; ++depth) {
    const Token t = DecodeOneToken(exp_.target(), pool_.Get(0).stream_seed, greedy,
                                   DecodeMode::kGreedy, chain_rng);
    node = chain.AddNode(node, t, /*cond_prob=*/1.0);
    greedy.push_back(t);
  }

  IterationRecord record;
  CommitVerifiedTree(/*now=*/0.5, /*end=*/0.75, pool_, ctx_, 0, chain, /*selected=*/{}, record);
  const Request& req = pool_.Get(0);
  EXPECT_EQ(req.state, RequestState::kFinished);
  EXPECT_EQ(req.output, (std::vector<Token>{1, 2, greedy[2], greedy[3]}));
  EXPECT_EQ(req.token_times.back(), 0.75);
  EXPECT_EQ(req.decode_start_time, 0.5);
  // The verdict accepted all four chain tokens; only two were needed.
  EXPECT_EQ(req.verifications, 1);
  EXPECT_EQ(req.accepted_tokens, 4);
  EXPECT_EQ(req.verified_tokens, 4);
  EXPECT_EQ(record.verified_tokens, 4);
  EXPECT_EQ(record.committed_tokens, 2);
}

// --- tick-phase building blocks ---

TEST_F(SchedulerHelpersTest, BudgetedPrefillCapsEachRequestAtBurst) {
  AddAndAdmit(2, /*prompt_len=*/64);
  const IterationRecord record =
      RunBudgetedPrefillPhase(0.0, pool_, ctx_, /*budget=*/100, /*burst=*/16);
  // Both prompts advance, but the kBurst cap stops either from taking more
  // than 16 tokens even though the budget (100) had room.
  EXPECT_EQ(record.prefill_tokens, 32);
  EXPECT_EQ(pool_.Get(0).prefill_progress, 16);
  EXPECT_EQ(pool_.Get(1).prefill_progress, 16);
  EXPECT_EQ(record.committed_tokens, 0);  // nothing completed
  EXPECT_GT(record.duration, 0.0);
}

TEST_F(SchedulerHelpersTest, BudgetedPrefillRespectsTokenBudget) {
  AddAndAdmit(2, /*prompt_len=*/64);
  const IterationRecord record =
      RunBudgetedPrefillPhase(0.0, pool_, ctx_, /*budget=*/24, /*burst=*/16);
  // FIFO: r0 takes a full burst, r1 gets the 8 leftover budget tokens.
  EXPECT_EQ(record.prefill_tokens, 24);
  EXPECT_EQ(pool_.Get(0).prefill_progress, 16);
  EXPECT_EQ(pool_.Get(1).prefill_progress, 8);
}

TEST_F(SchedulerHelpersTest, BudgetedPrefillCompletionCommitsFirstToken) {
  AddAndAdmit(2, /*prompt_len=*/8);
  const IterationRecord record =
      RunBudgetedPrefillPhase(0.0, pool_, ctx_, /*budget=*/64, /*burst=*/16);
  EXPECT_EQ(record.prefill_tokens, 16);
  EXPECT_EQ(record.committed_tokens, 2);
  for (RequestId id : {RequestId{0}, RequestId{1}}) {
    EXPECT_TRUE(pool_.Get(id).PrefillDone());
    EXPECT_EQ(pool_.Get(id).output_len(), 1);
    EXPECT_NEAR(pool_.Get(id).first_token_time, record.duration, 1e-12);
  }
}

TEST_F(SchedulerHelpersTest, BudgetedPrefillUncappedWhenBurstNonPositive) {
  AddAndAdmit(1, /*prompt_len=*/200);
  const IterationRecord record =
      RunBudgetedPrefillPhase(0.0, pool_, ctx_, /*budget=*/500, /*burst=*/0);
  EXPECT_EQ(record.prefill_tokens, 200);
  EXPECT_TRUE(pool_.Get(0).PrefillDone());
}

TEST_F(SchedulerHelpersTest, BudgetedPrefillNoWorkIsNoOp) {
  const IterationRecord idle = RunBudgetedPrefillPhase(0.0, pool_, ctx_, 100, 16);
  EXPECT_EQ(idle.duration, 0.0);
  AddAndAdmit(1);
  const IterationRecord no_budget = RunBudgetedPrefillPhase(0.0, pool_, ctx_, 0, 16);
  EXPECT_EQ(no_budget.duration, 0.0);
  EXPECT_EQ(pool_.Get(0).prefill_progress, 0);
}

TEST_F(SchedulerHelpersTest, MidTickAdmitPullsDueArrivalsAndAdmits) {
  const std::vector<Request> reqs = UniformWorkload(exp_, 3, kCatChat, /*spread_s=*/3.0);
  size_t next = 0;
  ctx_.pull_arrivals = [&](SimTime t) {
    int pulled = 0;
    while (next < reqs.size() && reqs[next].arrival <= t) {
      pool_.AddArrival(reqs[next++]);
      ++pulled;
    }
    return pulled;
  };
  ctx_.tick.max_active = 100;
  // Arrivals at 0, 1, 2: a phase ending at t=1.5 admits the first two.
  EXPECT_EQ(MidTickAdmitPhase(1.5, pool_, ctx_), 2);
  EXPECT_EQ(pool_.active().size(), 2u);
  EXPECT_EQ(MidTickAdmitPhase(2.5, pool_, ctx_), 1);
  EXPECT_EQ(pool_.active().size(), 3u);
}

TEST_F(SchedulerHelpersTest, ContinuousTickAdmitsMidTickAndPrefillsSameTick) {
  // r0 is running; r1 arrives strictly after the tick starts but before
  // the decode phase ends, so the tick admits it mid-flight and its
  // prompt gets a burst-capped prefill pass in the same tick — the
  // admission latency the drain loop could not avoid.
  std::vector<Request> reqs = UniformWorkload(exp_, 2, kCatChat, 0.0, /*prompt_len=*/64);
  reqs[1].arrival = 1e-6;
  pool_.AddArrival(reqs[0]);
  pool_.Admit(100, PriorityPolicy::kFifo);
  pool_.AdvancePrefill(0, 64);
  pool_.CommitToken(0, 1, 0.0);
  size_t next = 1;
  ctx_.pull_arrivals = [&](SimTime t) {
    int pulled = 0;
    while (next < reqs.size() && reqs[next].arrival <= t) {
      pool_.AddArrival(reqs[next++]);
      ++pulled;
    }
    return pulled;
  };
  ctx_.tick.max_active = 100;
  ctx_.tick.continuous = true;
  ctx_.tick.prefill_burst = 16;
  ctx_.verify_budget = 64;
  const TickResult tick = RunContinuousTick(
      0.0, pool_, ctx_, [](SimTime now, RequestPool& pool, ServingContext& ctx) {
        return RunDecodeIteration(now, pool, ctx, RunningRequests(pool));
      });
  EXPECT_TRUE(tick.MadeProgress());
  EXPECT_EQ(tick.record.admitted, 1);
  EXPECT_EQ(tick.record.decode_requests, 1);
  // The mid-tick admission got prefill service immediately, kBurst-capped.
  EXPECT_EQ(tick.record.prefill_tokens, 16);
  EXPECT_EQ(pool_.Get(1).prefill_progress, 16);
  EXPECT_GT(tick.record.prefill_time, 0.0);
}

}  // namespace
}  // namespace adaserve
