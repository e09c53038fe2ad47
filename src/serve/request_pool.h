// Request pool: the request manager's view of in-flight work (Fig. 6).
//
// Requests move kQueued -> kPrefilling -> kRunning -> kFinished. The pool
// owns request state; schedulers mutate it through the pool so that state
// transitions stay consistent with KV accounting. Admit is the one
// admission entry point: it ranks the queue by a PriorityPolicy, admits,
// and displaces victims under an eviction budget, so each admission policy
// lives here and nowhere else.
//
// Storage is a deque indexed by (id - retired prefix): streaming runs
// retire finished requests from the front in id order, so resident memory
// tracks the in-flight window instead of the whole trace.
#ifndef ADASERVE_SRC_SERVE_REQUEST_POOL_H_
#define ADASERVE_SRC_SERVE_REQUEST_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <vector>

#include "src/common/arena.h"
#include "src/serve/kv_cache.h"
#include "src/workload/request.h"

namespace adaserve {

// Admission policy of the pool's one admission call, Admit. kFifo admits
// in arrival order and never displaces. kSloUrgentFirst is the paper's
// SLO-customized admission: requests from tighter-TPOT-SLO categories jump
// the queue, and under an eviction budget an urgent head may
// recompute-evict a strictly less urgent *prefilling* request to make
// room. kSloUrgentPause ranks identically but *pauses* its victims
// (prefill progress preserved, resume-where-left-off) instead — modeling
// KV swap-out rather than recomputation.
enum class PriorityPolicy {
  kFifo,
  kSloUrgentFirst,
  kSloUrgentPause,
  // Earliest-deadline-first: ranks by each request's *next token deadline*
  // (Request::NextTokenDeadline) instead of the static SLO category, so a
  // relaxed request that has fallen behind can outrank a fresh urgent one
  // — the classic real-time answer to the same problem the SLO-aware
  // policies attack with category heuristics.
  kEdf,
};

class RequestPool {
 public:
  explicit RequestPool(KvCache* kv);

  // Adds an arriving request to the back of the admission queue. Ids must
  // be dense and sequential across the run (including retired requests).
  void AddArrival(const Request& request);

  // Ids awaiting admission, FIFO order.
  const std::deque<RequestId>& queued() const { return queued_; }
  // Ids admitted and not finished (prefilling or running).
  const std::vector<RequestId>& active() const { return active_; }

  bool HasWork() const { return !queued_.empty() || !active_.empty(); }
  size_t finished_count() const { return finished_count_; }

  Request& Get(RequestId id);
  const Request& Get(RequestId id) const;

  // The pool's one admission call: admits queued requests in `policy`
  // order until the active count reaches `max_active` or the head is
  // blocked on KV, and returns how many it admitted.
  //   - The head is the queue front under kFifo, else the stable minimum of
  //     the policy's urgency key (tpot_slo, or NextTokenDeadline under
  //     kEdf): ties keep queue order. A head blocked on KV stops admission
  //     rather than letting a worse-ranked request skip ahead.
  //   - Under the ranked policies with `max_evictions` > 0, a head blocked
  //     on KV displaces victims until it fits, at most `max_evictions` of
  //     them per call. A victim is the least urgent *prefilling*
  //     zero-output request strictly less urgent than the head (newest
  //     first among equals). Victims are paused under kSloUrgentPause and
  //     recompute-evicted otherwise, and counted into *paused or *evicted
  //     (when non-null). kFifo never displaces: a head blocked on KV stops
  //     admission whatever the budget.
  //   - Victims re-enter the queue right behind the head in reverse
  //     displacement order (tighter-SLO first), and the head the room was
  //     made for is admitted next, not a re-ranked one. Admission then
  //     continues.
  int Admit(int max_active, PriorityPolicy policy, int max_evictions = 0, int* evicted = nullptr,
            int* paused = nullptr);

  // Eviction hook (recompute-style): releases the request's KV, resets
  // its prefill progress, and returns it to the front of the admission
  // queue, so a scheduler can drop a request from the batch mid-flight.
  // Only requests with no committed output are evictable — their
  // recompute cost is prompt work alone, so no generated tokens are ever
  // discarded.
  void Evict(RequestId id);

  // Preemptive (pause-style) eviction: releases the request's KV like
  // Evict but keeps its prefill progress and marks it kPaused — swap-out
  // semantics. The request waits at the front of the admission queue and,
  // on re-admission, re-reserves its worst-case footprint and resumes
  // prefill where it stopped, so no prompt (or output) work is ever
  // redone. Only zero-output requests are pausable, same as Evict.
  void Pause(RequestId id);

  // Records `chunk` prompt tokens prefilled at time `now`. When the prompt
  // completes, the request transitions to kRunning; the caller then commits
  // the first output token.
  void AdvancePrefill(RequestId id, int chunk);

  // Commits one output token at `now`. Handles first-token bookkeeping and,
  // when the output reaches its target length, finishes the request and
  // releases its KV.
  void CommitToken(RequestId id, Token token, SimTime now);

  // Sum of context (KV) tokens across the given requests — the attention
  // read volume of one iteration.
  long SumContextTokens(const std::vector<RequestId>& ids) const;

  // All resident requests in id order (for metrics after the run). In
  // streaming runs retired requests are no longer present.
  const std::deque<Request>& requests() const { return requests_; }

  // Requests currently held in memory (queued + active + finished-but-not-
  // yet-retired). The engine tracks the peak of this to prove O(active)
  // residency for streaming runs.
  size_t resident_count() const { return requests_.size(); }
  // Requests retired from the front so far.
  size_t retired_count() const { return static_cast<size_t>(base_id_); }

  // When enabled, a finished request's token payload (output, token_times)
  // is released immediately at finish; only metrics-relevant scalars
  // remain. The payload buffers are not freed but parked in a VectorPool
  // and handed to later arrivals, so steady-state streaming serving
  // commits tokens into recycled capacity with zero heap allocation.
  void set_release_payload_on_finish(bool on) { release_payload_on_finish_ = on; }

  // Arrivals whose payload vectors reused capacity recycled from a
  // finished request (diagnostics; proves the zero-allocation fixed
  // point in tests and benches).
  size_t payload_reuses() const { return token_pool_.reuses(); }

  // Pops the finished prefix of the id window, invoking `sink` on each
  // popped request in id order. Call between scheduler iterations (never
  // mid-step: schedulers may still inspect requests finished this step).
  // Returns the number retired.
  size_t RetireFinishedPrefix(const std::function<void(const Request&)>& sink);

 private:
  // Queue position of the next request to admit under `policy`. Requires
  // a non-empty queue.
  std::deque<RequestId>::iterator RankedHead(PriorityPolicy policy);

  // The active request `head` would displace under a ranked `policy`, or
  // kInvalidRequestId when none ranks below it.
  RequestId Victim(const Request& head, PriorityPolicy policy) const;

  // Admits the queued request at `head` if its worst-case KV footprint
  // fits (no slot check — callers guarantee a free slot). On KV failure
  // the queue is left untouched.
  RequestId AdmitAt(std::deque<RequestId>::iterator head);

  void Finish(RequestId id, SimTime now);

  KvCache* kv_;
  std::deque<Request> requests_;
  // Id of requests_.front(); ids below it have been retired.
  RequestId base_id_ = 0;
  std::deque<RequestId> queued_;
  std::vector<RequestId> active_;
  size_t finished_count_ = 0;
  bool release_payload_on_finish_ = false;
  // Recycled payload capacity: finished requests' token/timestamp buffers
  // are parked here and reused by later arrivals.
  VectorPool<Token> token_pool_;
  VectorPool<SimTime> time_pool_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_SERVE_REQUEST_POOL_H_
