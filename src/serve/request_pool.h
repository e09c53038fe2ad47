// Request pool: the request manager's view of in-flight work (Fig. 6).
//
// Requests move kQueued -> kPrefilling -> kRunning -> kFinished. The pool
// owns request state; schedulers mutate it through the pool so that state
// transitions stay consistent with KV accounting.
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

// How an eviction-for-admission victim is displaced. kRecompute releases
// its KV and resets prefill progress (the historical style: prompt work is
// redone from scratch). kPause releases the KV but keeps the prefill
// progress — modeling swap-out to host memory — so the victim resumes
// where it left off when re-admitted.
enum class EvictionStyle {
  kRecompute,
  kPause,
};

class RequestPool {
 public:
  // Admission-order ranker: returns true when `a` should be admitted
  // before `b`. Selection is stable — ties keep queue (arrival) order —
  // and a null ranker means plain FIFO, the historical behavior.
  using AdmissionRanker = std::function<bool(const Request&, const Request&)>;

  // Picks the next eviction victim to make room for `head` from the
  // pool's active requests, or kInvalidRequestId when nothing (more)
  // should be evicted. Implementations must only return requests with no
  // committed output (Evict checks); a null selector falls back to the
  // newest-admitted zero-output request.
  using VictimSelector = std::function<RequestId(const Request& head, const RequestPool&)>;

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

  // Admits the head queued request — the queue front, or the best-ranked
  // queued request under `rank` — if its worst-case KV footprint fits and
  // the active count is below `max_active`. Head-of-line semantics are
  // preserved under ranking: when the ranked head is blocked on KV,
  // admission stops rather than skipping to a worse-ranked request.
  // Returns the admitted id or kInvalidRequestId.
  RequestId TryAdmit(int max_active, const AdmissionRanker& rank = nullptr);

  // Admits (FIFO or ranked) until blocked; returns number admitted.
  int AdmitUpTo(int max_active, const AdmissionRanker& rank = nullptr);

  // Admission under KV pressure (the boundary admission phase of a
  // tick-native tick uses this): tries to admit the head (queue front or
  // ranked-best), and when it is blocked on KV alone, evicts victims
  // chosen by `select_victim` — newest-admitted zero-output requests when
  // null — recompute-style (KV released, prefill progress reset) until
  // the head fits, at most `max_evictions` of them. Evicted requests
  // re-enter the queue immediately behind the head in reverse eviction
  // order, so they are retried before older queued work: with the null
  // (newest-first) selector that is their original arrival order, and
  // with the SLO-aware selector (loosest-SLO-first eviction)
  // tighter-SLO victims queue first; equal-rank victims always keep
  // arrival order. `*evicted` (when non-null) is incremented per
  // eviction. Returns the admitted id or kInvalidRequestId (evictions
  // already performed are kept either way). `style` picks how victims are
  // displaced: kRecompute (Evict) or kPause (Pause, progress-preserving);
  // the one counter covers both since a call uses one style throughout.
  RequestId AdmitWithEviction(int max_active, int max_evictions, int* evicted = nullptr,
                              const AdmissionRanker& rank = nullptr,
                              const VictimSelector& select_victim = nullptr,
                              EvictionStyle style = EvictionStyle::kRecompute);

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

  // Deactivates a running/prefilling request (FastServe/priority
  // preemption). KV stays resident; the request returns to the front of the
  // admission queue and resumes without re-prefilling.
  void Preempt(RequestId id);

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
  // Queue position of the next request to admit: the front, or the stable
  // minimum under `rank`. Requires a non-empty queue.
  std::deque<RequestId>::iterator RankedHead(const AdmissionRanker& rank);

  // Admits the queued request at `head` if its worst-case KV footprint
  // fits (no slot check — callers guarantee a free slot). On KV failure
  // the queue is left untouched.
  RequestId TryAdmitAt(std::deque<RequestId>::iterator head);

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
