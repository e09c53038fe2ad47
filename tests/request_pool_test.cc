#include "src/serve/request_pool.h"

#include <gtest/gtest.h>

namespace adaserve {
namespace {

Request MakeRequest(RequestId id, int prompt_len = 20, int output_len = 4) {
  Request req;
  req.id = id;
  req.category = 0;
  req.tpot_slo = 0.05;
  req.arrival = 0.0;
  req.prompt_len = prompt_len;
  req.target_output_len = output_len;
  req.stream_seed = static_cast<uint64_t>(id);
  return req;
}

class RequestPoolTest : public ::testing::Test {
 protected:
  RequestPoolTest() : kv_(10000.0, 1.0, 16), pool_(&kv_) {}
  KvCache kv_;
  RequestPool pool_;
};

TEST_F(RequestPoolTest, ArrivalGoesToQueue) {
  pool_.AddArrival(MakeRequest(0));
  EXPECT_EQ(pool_.queued().size(), 1u);
  EXPECT_TRUE(pool_.active().empty());
  EXPECT_EQ(pool_.Get(0).state, RequestState::kQueued);
}

TEST_F(RequestPoolTest, AdmissionReservesKv) {
  pool_.AddArrival(MakeRequest(0, /*prompt_len=*/20, /*output_len=*/4));
  EXPECT_EQ(pool_.TryAdmit(10), 0);
  EXPECT_EQ(pool_.Get(0).state, RequestState::kPrefilling);
  EXPECT_EQ(kv_.HeldBy(0), kv_.RoundToBlocks(24));
}

TEST_F(RequestPoolTest, AdmissionRespectsMaxActive) {
  pool_.AddArrival(MakeRequest(0));
  pool_.AddArrival(MakeRequest(1));
  EXPECT_EQ(pool_.AdmitUpTo(1), 1);
  EXPECT_EQ(pool_.queued().size(), 1u);
}

TEST_F(RequestPoolTest, AdmissionBlockedByKv) {
  KvCache tiny(32.0, 1.0, 16);
  RequestPool pool(&tiny);
  pool.AddArrival(MakeRequest(0, 20, 4));   // 24 -> 32 tokens, fits exactly
  pool.AddArrival(MakeRequest(1, 20, 4));
  EXPECT_EQ(pool.AdmitUpTo(10), 1);
  EXPECT_EQ(pool.queued().size(), 1u);
}

TEST_F(RequestPoolTest, PrefillProgressAndTransition) {
  pool_.AddArrival(MakeRequest(0, 20, 4));
  pool_.AdmitUpTo(10);
  pool_.AdvancePrefill(0, 12);
  EXPECT_EQ(pool_.Get(0).state, RequestState::kPrefilling);
  EXPECT_EQ(pool_.Get(0).prefill_progress, 12);
  pool_.AdvancePrefill(0, 8);
  EXPECT_EQ(pool_.Get(0).state, RequestState::kRunning);
  EXPECT_TRUE(pool_.Get(0).PrefillDone());
}

TEST_F(RequestPoolTest, PrefillOverflowClamps) {
  pool_.AddArrival(MakeRequest(0, 20, 4));
  pool_.AdmitUpTo(10);
  pool_.AdvancePrefill(0, 100);
  EXPECT_EQ(pool_.Get(0).prefill_progress, 20);
}

TEST_F(RequestPoolTest, CommitTokensAndFinish) {
  pool_.AddArrival(MakeRequest(0, 20, 3));
  pool_.AdmitUpTo(10);
  pool_.AdvancePrefill(0, 20);
  pool_.CommitToken(0, 5, 1.0);
  EXPECT_EQ(pool_.Get(0).first_token_time, 1.0);
  pool_.CommitToken(0, 6, 1.1);
  EXPECT_EQ(pool_.Get(0).state, RequestState::kRunning);
  pool_.CommitToken(0, 7, 1.2);
  EXPECT_EQ(pool_.Get(0).state, RequestState::kFinished);
  EXPECT_EQ(pool_.Get(0).finish_time, 1.2);
  EXPECT_EQ(pool_.finished_count(), 1u);
  EXPECT_TRUE(pool_.active().empty());
  EXPECT_EQ(kv_.HeldBy(0), 0);  // KV released on finish
}

TEST_F(RequestPoolTest, AvgTpotFromTimestamps) {
  pool_.AddArrival(MakeRequest(0, 20, 3));
  pool_.AdmitUpTo(10);
  pool_.AdvancePrefill(0, 20);
  pool_.CommitToken(0, 5, 1.0);
  pool_.CommitToken(0, 6, 1.1);
  pool_.CommitToken(0, 7, 1.2);
  EXPECT_NEAR(pool_.Get(0).AvgTpot(), 0.1, 1e-9);
  EXPECT_FALSE(pool_.Get(0).Attained());  // 100ms > 50ms SLO
}

TEST_F(RequestPoolTest, SumContextTokens) {
  pool_.AddArrival(MakeRequest(0, 10, 4));
  pool_.AddArrival(MakeRequest(1, 30, 4));
  pool_.AdmitUpTo(10);
  pool_.AdvancePrefill(0, 10);
  pool_.AdvancePrefill(1, 30);
  pool_.CommitToken(0, 5, 1.0);
  EXPECT_EQ(pool_.SumContextTokens({0, 1}), 10 + 1 + 30);
}

TEST_F(RequestPoolTest, HasWorkReflectsState) {
  EXPECT_FALSE(pool_.HasWork());
  pool_.AddArrival(MakeRequest(0, 4, 2));
  EXPECT_TRUE(pool_.HasWork());
  pool_.AdmitUpTo(10);
  EXPECT_TRUE(pool_.HasWork());
  pool_.AdvancePrefill(0, 4);
  pool_.CommitToken(0, 1, 0.1);
  pool_.CommitToken(0, 2, 0.2);
  EXPECT_FALSE(pool_.HasWork());
}

TEST_F(RequestPoolTest, EvictReleasesKvResetsPrefillAndRequeuesFront) {
  pool_.AddArrival(MakeRequest(0, 20, 4));
  pool_.AddArrival(MakeRequest(1, 20, 4));
  pool_.AdmitUpTo(1);  // r0 active, r1 still queued
  pool_.AdvancePrefill(0, 12);
  pool_.Evict(0);
  EXPECT_EQ(pool_.Get(0).state, RequestState::kQueued);
  EXPECT_EQ(pool_.Get(0).prefill_progress, 0);  // recompute-style
  EXPECT_EQ(kv_.HeldBy(0), 0);
  EXPECT_TRUE(pool_.active().empty());
  // Evicted requests are retried before older queued work.
  ASSERT_EQ(pool_.queued().size(), 2u);
  EXPECT_EQ(pool_.queued()[0], 0);
  EXPECT_EQ(pool_.queued()[1], 1);
}

TEST_F(RequestPoolTest, AdmitWithEvictionMakesRoomForBlockedHead) {
  // Capacity 64 tokens: two 20+4 requests (32 blocks each) fill it.
  KvCache tiny(64.0, 1.0, 16);
  RequestPool pool(&tiny);
  pool.AddArrival(MakeRequest(0, 20, 4));
  pool.AddArrival(MakeRequest(1, 20, 4));
  pool.AddArrival(MakeRequest(2, 20, 4));
  EXPECT_EQ(pool.AdmitUpTo(10), 2);
  int evicted = 0;
  EXPECT_EQ(pool.AdmitWithEviction(10, /*max_evictions=*/2, &evicted), 2);
  EXPECT_EQ(evicted, 1);
  // The newest-admitted zero-output request (r1) was evicted; the head
  // (r2) is now active alongside r0.
  EXPECT_EQ(pool.Get(1).state, RequestState::kQueued);
  EXPECT_EQ(pool.Get(2).state, RequestState::kPrefilling);
  ASSERT_EQ(pool.queued().size(), 1u);
  EXPECT_EQ(pool.queued().front(), 1);
}

TEST_F(RequestPoolTest, AdmitWithEvictionPreservesArrivalOrderOfVictims) {
  // Head r2 needs 48 tokens; evicting both r0 and r1 (32 each) is the
  // only way to fit it in a 64-token cache.
  KvCache tiny(64.0, 1.0, 16);
  RequestPool pool(&tiny);
  pool.AddArrival(MakeRequest(0, 20, 4));
  pool.AddArrival(MakeRequest(1, 20, 4));
  pool.AddArrival(MakeRequest(2, 40, 8));
  EXPECT_EQ(pool.AdmitUpTo(10), 2);
  int evicted = 0;
  EXPECT_EQ(pool.AdmitWithEviction(10, /*max_evictions=*/4, &evicted), 2);
  EXPECT_EQ(evicted, 2);
  // Victims are picked newest-first (r1 then r0) but re-enter the queue
  // in their original arrival order, preserving FIFO on re-admission.
  ASSERT_EQ(pool.queued().size(), 2u);
  EXPECT_EQ(pool.queued()[0], 0);
  EXPECT_EQ(pool.queued()[1], 1);
}

TEST_F(RequestPoolTest, AdmitWithEvictionSparesRequestsWithCommittedOutput) {
  KvCache tiny(64.0, 1.0, 16);
  RequestPool pool(&tiny);
  pool.AddArrival(MakeRequest(0, 20, 4));
  pool.AddArrival(MakeRequest(1, 20, 4));
  pool.AddArrival(MakeRequest(2, 20, 4));
  EXPECT_EQ(pool.AdmitUpTo(10), 2);
  // r1 has committed output: evicting it would discard generated tokens,
  // so the only candidate is r0.
  pool.AdvancePrefill(1, 20);
  pool.CommitToken(1, 5, 0.5);
  int evicted = 0;
  EXPECT_EQ(pool.AdmitWithEviction(10, /*max_evictions=*/4, &evicted), 2);
  EXPECT_EQ(evicted, 1);
  EXPECT_EQ(pool.Get(0).state, RequestState::kQueued);
  EXPECT_EQ(pool.Get(1).state, RequestState::kRunning);
}

Request SloRequest(RequestId id, double tpot_slo, int prompt_len = 20, int output_len = 4) {
  Request req = MakeRequest(id, prompt_len, output_len);
  req.tpot_slo = tpot_slo;
  return req;
}

// Lower-tpot_slo-first ranker used by the ranked-admission tests (the
// same shape PriorityRanker(kSloUrgentFirst) produces).
bool UrgentFirst(const Request& a, const Request& b) { return a.tpot_slo < b.tpot_slo; }

TEST_F(RequestPoolTest, RankedAdmissionPicksBestRankedNotFront) {
  pool_.AddArrival(SloRequest(0, 0.15));
  pool_.AddArrival(SloRequest(1, 0.02));
  pool_.AddArrival(SloRequest(2, 0.05));
  EXPECT_EQ(pool_.TryAdmit(10, UrgentFirst), 1);
  EXPECT_EQ(pool_.TryAdmit(10, UrgentFirst), 2);
  EXPECT_EQ(pool_.TryAdmit(10, UrgentFirst), 0);
  EXPECT_TRUE(pool_.queued().empty());
}

TEST_F(RequestPoolTest, RankedAdmissionKeepsHeadOfLineBlockingOnKv) {
  // The ranked head is blocked on KV: admission must stop, not skip to a
  // worse-ranked request that would fit — otherwise a stream of small
  // relaxed requests could starve a large urgent one forever.
  KvCache tiny(64.0, 1.0, 16);
  RequestPool pool(&tiny);
  pool.AddArrival(SloRequest(0, 0.15));  // 32 blocks, admitted below
  pool.AddArrival(SloRequest(1, 0.02, /*prompt_len=*/40, /*output_len=*/8));  // 48: blocked
  pool.AddArrival(SloRequest(2, 0.15));  // 32: would fit, must not skip ahead
  ASSERT_EQ(pool.TryAdmit(10), 0);
  EXPECT_EQ(pool.AdmitUpTo(10, UrgentFirst), 0);
  EXPECT_EQ(pool.queued().size(), 2u);
}

TEST_F(RequestPoolTest, NullRankerIsExactFifo) {
  pool_.AddArrival(SloRequest(0, 0.15));
  pool_.AddArrival(SloRequest(1, 0.02));
  EXPECT_EQ(pool_.TryAdmit(10, nullptr), 0);
  EXPECT_EQ(pool_.TryAdmit(10, nullptr), 1);
}

TEST_F(RequestPoolTest, AdmitWithEvictionCustomVictimSelector) {
  // A selector that refuses everything: the head stays blocked and no
  // eviction happens even though the default policy would have evicted.
  KvCache tiny(64.0, 1.0, 16);
  RequestPool pool(&tiny);
  pool.AddArrival(MakeRequest(0, 20, 4));
  pool.AddArrival(MakeRequest(1, 20, 4));
  pool.AddArrival(MakeRequest(2, 20, 4));
  EXPECT_EQ(pool.AdmitUpTo(10), 2);
  int evicted = 0;
  const auto refuse_all = [](const Request&, const RequestPool&) { return kInvalidRequestId; };
  EXPECT_EQ(pool.AdmitWithEviction(10, /*max_evictions=*/4, &evicted, nullptr, refuse_all),
            kInvalidRequestId);
  EXPECT_EQ(evicted, 0);
  EXPECT_EQ(pool.queued().front(), 2);  // Head back where it was.
}

TEST_F(RequestPoolTest, AdmitWithEvictionGivesUpWhenNothingEvictable) {
  KvCache tiny(64.0, 1.0, 16);
  RequestPool pool(&tiny);
  pool.AddArrival(MakeRequest(0, 20, 4));
  pool.AddArrival(MakeRequest(1, 20, 4));
  pool.AddArrival(MakeRequest(2, 20, 4));
  EXPECT_EQ(pool.AdmitUpTo(10), 2);
  for (RequestId id : {RequestId{0}, RequestId{1}}) {
    pool.AdvancePrefill(id, 20);
    pool.CommitToken(id, 5, 0.5);
  }
  int evicted = 0;
  EXPECT_EQ(pool.AdmitWithEviction(10, /*max_evictions=*/4, &evicted), kInvalidRequestId);
  EXPECT_EQ(evicted, 0);
  EXPECT_EQ(pool.queued().front(), 2);  // head back where it was
}

TEST_F(RequestPoolTest, RetiringPoolRecyclesPayloadBuffers) {
  pool_.set_release_payload_on_finish(true);
  // First request: finish it so its payload capacity is parked.
  pool_.AddArrival(MakeRequest(0, 20, 2));
  pool_.AdmitUpTo(10);
  pool_.AdvancePrefill(0, 20);
  pool_.CommitToken(0, 5, 0.1);
  pool_.CommitToken(0, 6, 0.2);  // Finishes (output_len 2) and releases.
  EXPECT_EQ(pool_.Get(0).state, RequestState::kFinished);
  EXPECT_EQ(pool_.Get(0).output.capacity(), 0u);  // Payload moved out.
  EXPECT_EQ(pool_.payload_reuses(), 0u);

  // Second request: its commits must reuse the recycled capacity.
  pool_.AddArrival(MakeRequest(1, 20, 2));
  EXPECT_EQ(pool_.payload_reuses(), 1u);
  EXPECT_GT(pool_.Get(1).output.capacity(), 0u);
  pool_.AdmitUpTo(10);
  pool_.AdvancePrefill(1, 20);
  pool_.CommitToken(1, 7, 0.3);
  pool_.CommitToken(1, 8, 0.4);
  EXPECT_EQ(pool_.Get(1).state, RequestState::kFinished);
}

TEST_F(RequestPoolTest, NonRetiringPoolKeepsPayloads) {
  pool_.AddArrival(MakeRequest(0, 20, 1));
  pool_.AdmitUpTo(10);
  pool_.AdvancePrefill(0, 20);
  pool_.CommitToken(0, 5, 0.1);
  EXPECT_EQ(pool_.Get(0).state, RequestState::kFinished);
  ASSERT_EQ(pool_.Get(0).output.size(), 1u);  // Payload retained.
  EXPECT_EQ(pool_.Get(0).output[0], 5);
  EXPECT_EQ(pool_.payload_reuses(), 0u);
}

TEST_F(RequestPoolTest, MeanAcceptedBookkeeping) {
  Request req = MakeRequest(0);
  pool_.AddArrival(req);
  pool_.AdmitUpTo(10);
  Request& r = pool_.Get(0);
  r.verifications = 4;
  r.accepted_tokens = 10;
  EXPECT_DOUBLE_EQ(r.MeanAccepted(), 2.5);
}

}  // namespace
}  // namespace adaserve
