// Laws of the deadline-theoretic baseline (EDF): the decode batch is
// always a (deadline, id)-sorted prefix of the running set — tighter
// deadlines schedule first, ties keep arrival order — overdue deadlines
// never constrain the batch (no starvation), and NextTokenDeadline is a
// pure function of current progress, so pause/resume cycles recompute
// rather than cache it.
#include <gtest/gtest.h>

#include <vector>

#include "src/baselines/edf.h"
#include "tests/test_util.h"

namespace adaserve {
namespace {

Request SloRequest(RequestId id, double tpot_slo, SimTime arrival = 0.0, int prompt_len = 20,
                   int output_len = 8) {
  Request req;
  req.id = id;
  req.category = kCatChat;
  req.tpot_slo = tpot_slo;
  req.arrival = arrival;
  req.prompt_len = prompt_len;
  req.target_output_len = output_len;
  req.stream_seed = static_cast<uint64_t>(id) ^ 0x5eed;
  return req;
}

class DeadlineBaselinesTest : public ::testing::Test {
 protected:
  DeadlineBaselinesTest() : exp_(TestSetup()), kv_(100000.0, 1.0, 16), pool_(&kv_) {
    ctx_.target_latency = &exp_.target_latency();
  }

  // Admits `req` and drives it to kRunning with its first token committed
  // at `first_token_time`, so its NextTokenDeadline = first_token_time +
  // committed_len * tpot_slo.
  void AddRunning(const Request& req, SimTime first_token_time) {
    pool_.AddArrival(req);
    ASSERT_EQ(pool_.Admit(/*max_active=*/256, PriorityPolicy::kFifo), 1);
    pool_.AdvancePrefill(req.id, req.prompt_len);
    ASSERT_EQ(pool_.Get(req.id).state, RequestState::kRunning);
    pool_.CommitToken(req.id, /*token=*/1, first_token_time);
  }

  Experiment exp_;
  KvCache kv_;
  RequestPool pool_;
  ServingContext ctx_;
};

TEST_F(DeadlineBaselinesTest, DecodeBatchIsTightestDeadlineFirstPrefix) {
  // Deadlines at now=1.0: id0 -> 3.0, id1 -> 1.5, id2 -> 2.0.
  AddRunning(SloRequest(0, 2.0), /*first_token_time=*/1.0);
  AddRunning(SloRequest(1, 0.5), 1.0);
  AddRunning(SloRequest(2, 1.0), 1.0);

  const std::vector<RequestId> batch = EdfDecodeBatch(1.0, pool_, ctx_);
  const std::vector<RequestId> expected_order = {1, 2, 0};
  ASSERT_GE(batch.size(), 1u);
  EXPECT_EQ(batch, std::vector<RequestId>(expected_order.begin(),
                                          expected_order.begin() +
                                              static_cast<long>(batch.size())))
      << "the batch must be a deadline-sorted prefix";
  EXPECT_EQ(batch.front(), 1) << "the tightest deadline schedules first";
  // With the whole batch feasible against the binding (earliest live)
  // deadline, nothing may be shed.
  const long context = pool_.SumContextTokens({0, 1, 2});
  if (1.0 + ctx_.target_latency->ForwardLatency(3, context, true) <= 1.5) {
    EXPECT_EQ(batch.size(), 3u);
  }
}

TEST_F(DeadlineBaselinesTest, EqualDeadlinesKeepArrivalOrder) {
  for (RequestId id = 0; id < 3; ++id) {
    AddRunning(SloRequest(id, /*tpot_slo=*/5.0), 1.0);
  }
  const std::vector<RequestId> batch = EdfDecodeBatch(1.0, pool_, ctx_);
  const std::vector<RequestId> expected = {0, 1, 2};
  EXPECT_EQ(batch, std::vector<RequestId>(expected.begin(),
                                          expected.begin() + static_cast<long>(batch.size())));
}

TEST_F(DeadlineBaselinesTest, ShedsLatestDeadlinesWhenBindingDeadlineIsUnmeetable) {
  // Three relaxed requests plus one whose deadline sits between the
  // 1-request and the 4-request iteration latency: serving everyone would
  // miss it, so EDF must shed from the tail — never below one request.
  AddRunning(SloRequest(0, 1e6), 1.0);
  AddRunning(SloRequest(1, 1e6), 1.0);
  AddRunning(SloRequest(2, 1e6), 1.0);
  // Admitted last but carries the earliest deadline once computed below.
  Request tight = SloRequest(3, 1.0);
  pool_.AddArrival(tight);
  ASSERT_EQ(pool_.Admit(256, PriorityPolicy::kFifo), 1);
  pool_.AdvancePrefill(3, tight.prompt_len);
  const long ctx_tight = pool_.Get(3).KvTokens() + 1;
  const long ctx_all = pool_.SumContextTokens({0, 1, 2, 3}) + 1;
  const double lat1 = ctx_.target_latency->ForwardLatency(1, ctx_tight, true);
  const double lat4 = ctx_.target_latency->ForwardLatency(4, ctx_all, true);
  ASSERT_LT(lat1, lat4);
  // Deadline = first_token_time + tpot_slo; place it halfway between.
  pool_.Get(3).tpot_slo = (lat1 + lat4) / 2.0;
  pool_.CommitToken(3, 1, /*now=*/1.0);

  const std::vector<RequestId> batch = EdfDecodeBatch(1.0, pool_, ctx_);
  ASSERT_GE(batch.size(), 1u);
  EXPECT_LT(batch.size(), 4u) << "the full batch misses the binding deadline";
  EXPECT_EQ(batch.front(), 3) << "shedding drops the latest deadlines, not the binding one";
}

TEST_F(DeadlineBaselinesTest, OverdueDeadlinesNeverConstrainTheBatch) {
  // Every deadline is long past: tardiness is sunk, so EDF keeps serving
  // the whole batch instead of starving it behind an unmeetable bound.
  for (RequestId id = 0; id < 4; ++id) {
    AddRunning(SloRequest(id, /*tpot_slo=*/1e-6), 1.0);
  }
  const std::vector<RequestId> batch = EdfDecodeBatch(/*now=*/10.0, pool_, ctx_);
  EXPECT_EQ(batch.size(), 4u);
}

TEST_F(DeadlineBaselinesTest, EdfAdmitPhasePrefersEarliestDeadlineNotArrival) {
  // Queued deadlines are arrival + tpot_slo: the later arrival with the
  // tighter SLO outranks the earlier relaxed one under kEdf.
  pool_.AddArrival(SloRequest(0, /*tpot_slo=*/0.15, /*arrival=*/0.0));   // deadline 0.15
  pool_.AddArrival(SloRequest(1, /*tpot_slo=*/0.02, /*arrival=*/0.02));  // deadline 0.04
  ServingContext ctx;
  ctx.tick.max_active = 1;
  ctx.tick.admission_priority = PriorityPolicy::kEdf;
  EXPECT_EQ(TickAdmitPhase(0.05, pool_, ctx), 1);
  EXPECT_EQ(pool_.active().front(), 1);
  EXPECT_EQ(pool_.Get(0).state, RequestState::kQueued);
}

TEST_F(DeadlineBaselinesTest, DeadlineIsRecomputedAcrossPauseResumeAndProgress) {
  Request req = SloRequest(0, /*tpot_slo=*/0.1, /*arrival=*/2.0);
  pool_.AddArrival(req);
  EXPECT_DOUBLE_EQ(pool_.Get(0).NextTokenDeadline(), 2.1) << "queued: arrival + slo";

  ASSERT_EQ(pool_.Admit(256, PriorityPolicy::kFifo), 1);
  pool_.AdvancePrefill(0, req.prompt_len / 2);
  pool_.Pause(0);
  EXPECT_EQ(pool_.Get(0).state, RequestState::kPaused);
  EXPECT_DOUBLE_EQ(pool_.Get(0).NextTokenDeadline(), 2.1)
      << "pausing preserves progress but not a stale deadline";

  ASSERT_EQ(pool_.Admit(256, PriorityPolicy::kFifo), 1);
  pool_.AdvancePrefill(0, req.prompt_len - req.prompt_len / 2);
  pool_.CommitToken(0, 1, /*now=*/5.0);
  EXPECT_DOUBLE_EQ(pool_.Get(0).NextTokenDeadline(), 5.0 + 0.1)
      << "after the first token the deadline tracks actual progress";
  pool_.CommitToken(0, 1, 5.05);
  EXPECT_DOUBLE_EQ(pool_.Get(0).NextTokenDeadline(), 5.0 + 2 * 0.1);
}

}  // namespace
}  // namespace adaserve
