#include "src/serve/request_pool.h"

#include <algorithm>

#include "src/common/logging.h"

namespace adaserve {

RequestPool::RequestPool(KvCache* kv) : kv_(kv) { ADASERVE_CHECK(kv_ != nullptr) << "null KV"; }

void RequestPool::AddArrival(const Request& request) {
  ADASERVE_CHECK(request.id == base_id_ + static_cast<RequestId>(requests_.size()))
      << "requests must arrive with dense sequential ids; got " << request.id;
  requests_.push_back(request);
  Request& stored = requests_.back();
  stored.state = RequestState::kQueued;
  // Arrivals come with empty payload vectors; hand them capacity recycled
  // from finished requests so steady-state token commits never allocate.
  if (stored.output.capacity() == 0) {
    stored.output = token_pool_.Acquire();
  }
  if (stored.token_times.capacity() == 0) {
    stored.token_times = time_pool_.Acquire();
  }
  queued_.push_back(request.id);
}

Request& RequestPool::Get(RequestId id) {
  ADASERVE_CHECK(id >= base_id_ &&
                 static_cast<size_t>(id - base_id_) < requests_.size())
      << "bad or retired id " << id;
  return requests_[static_cast<size_t>(id - base_id_)];
}

const Request& RequestPool::Get(RequestId id) const {
  ADASERVE_CHECK(id >= base_id_ &&
                 static_cast<size_t>(id - base_id_) < requests_.size())
      << "bad or retired id " << id;
  return requests_[static_cast<size_t>(id - base_id_)];
}

namespace {

// The urgency key of a ranked policy, smaller = more urgent.
SimTime UrgencyKey(const Request& req, PriorityPolicy policy) {
  return policy == PriorityPolicy::kEdf ? req.NextTokenDeadline() : req.tpot_slo;
}

}  // namespace

std::deque<RequestId>::iterator RequestPool::RankedHead(PriorityPolicy policy) {
  auto head = queued_.begin();
  if (policy == PriorityPolicy::kFifo) {
    return head;
  }
  // Stable min: only a strictly more urgent request displaces the current
  // head, so ties keep queue (arrival) order.
  SimTime head_key = UrgencyKey(Get(*head), policy);
  for (auto it = std::next(head); it != queued_.end(); ++it) {
    if (const SimTime key = UrgencyKey(Get(*it), policy); key < head_key) {
      head = it;
      head_key = key;
    }
  }
  return head;
}

RequestId RequestPool::Victim(const Request& head, PriorityPolicy policy) const {
  // Only a prefilling zero-output request strictly less urgent than the
  // head. Newest-first scan keeping the largest key: the least urgent goes
  // first, and among equals the newest (least prefill progress to redo).
  RequestId victim = kInvalidRequestId;
  SimTime victim_key = UrgencyKey(head, policy);
  for (auto it = active_.rbegin(); it != active_.rend(); ++it) {
    const Request& req = Get(*it);
    if (req.state != RequestState::kPrefilling || req.committed_len != 0) {
      continue;
    }
    if (const SimTime key = UrgencyKey(req, policy); key > victim_key) {
      victim = *it;
      victim_key = key;
    }
  }
  return victim;
}

RequestId RequestPool::AdmitAt(std::deque<RequestId>::iterator head) {
  const RequestId id = *head;
  Request& req = Get(id);
  // Worst-case footprint: full prompt + full output. Reserving up front
  // guarantees no mid-decode OOM.
  const long footprint = req.prompt_len + req.target_output_len;
  if (!kv_->Reserve(id, footprint)) {
    return kInvalidRequestId;
  }
  queued_.erase(head);
  active_.push_back(id);
  if (!req.PrefillDone()) {
    req.state = RequestState::kPrefilling;
  } else {
    req.state = RequestState::kRunning;  // Re-admission after preemption.
  }
  return id;
}

int RequestPool::Admit(int max_active, PriorityPolicy policy, int max_evictions, int* evicted,
                       int* paused) {
  const bool pause = policy == PriorityPolicy::kSloUrgentPause;
  int* displaced = pause ? paused : evicted;
  int admitted = 0;
  while (!queued_.empty() && static_cast<int>(active_.size()) < max_active) {
    const auto head_it = RankedHead(policy);
    if (AdmitAt(head_it) != kInvalidRequestId) {
      ++admitted;
      continue;
    }
    if (max_evictions <= 0 || policy == PriorityPolicy::kFifo) {
      // Blocked on KV with no eviction budget left, or under FIFO, which
      // admits in arrival order and never displaces.
      break;
    }
    // Set the head aside so victims queue behind it, then displace victims
    // until its worst-case footprint fits or the budget runs out.
    const RequestId head = *head_it;
    queued_.erase(head_it);
    const long footprint = Get(head).prompt_len + Get(head).target_output_len;
    int displaced_now = 0;
    while (max_evictions > 0 && !kv_->CanReserve(footprint)) {
      const RequestId victim = Victim(Get(head), policy);
      if (victim == kInvalidRequestId) {
        break;  // Nothing (more) the policy is willing to displace.
      }
      // Each push_front reverses displacement order: loosest-first
      // victims end up queued tighter-SLO first.
      if (pause) {
        Pause(victim);
      } else {
        Evict(victim);
      }
      --max_evictions;
      ++displaced_now;
    }
    queued_.push_front(head);
    if (displaced != nullptr) {
      *displaced += displaced_now;
    }
    // Admit the head the room was made for, not a re-ranked one: victims
    // rank no better than it, and the front slot is where it sits.
    if (AdmitAt(queued_.begin()) == kInvalidRequestId) {
      break;
    }
    ++admitted;
  }
  return admitted;
}

void RequestPool::Evict(RequestId id) {
  Request& req = Get(id);
  ADASERVE_CHECK(req.state == RequestState::kPrefilling || req.state == RequestState::kRunning)
      << "evict on inactive " << id;
  ADASERVE_CHECK(req.committed_len == 0) << "evict would discard committed output of " << id;
  auto it = std::find(active_.begin(), active_.end(), id);
  ADASERVE_CHECK(it != active_.end()) << "evicted request not active " << id;
  active_.erase(it);
  kv_->Release(id);
  req.prefill_progress = 0;  // Recompute-style: prompt work is redone.
  req.state = RequestState::kQueued;
  queued_.push_front(id);
}

void RequestPool::Pause(RequestId id) {
  Request& req = Get(id);
  ADASERVE_CHECK(req.state == RequestState::kPrefilling || req.state == RequestState::kRunning)
      << "pause on inactive " << id;
  ADASERVE_CHECK(req.committed_len == 0) << "pause would strand committed output of " << id;
  auto it = std::find(active_.begin(), active_.end(), id);
  ADASERVE_CHECK(it != active_.end()) << "paused request not active " << id;
  active_.erase(it);
  kv_->Release(id);  // Swap-out: the KV leaves the device...
  // ...but the prefill progress survives, so re-admission resumes the
  // prompt where it stopped instead of recomputing it.
  req.state = RequestState::kPaused;
  queued_.push_front(id);
}

void RequestPool::AdvancePrefill(RequestId id, int chunk) {
  Request& req = Get(id);
  ADASERVE_CHECK(req.state == RequestState::kPrefilling) << "prefill on non-prefilling " << id;
  ADASERVE_CHECK(chunk > 0) << "empty prefill chunk";
  req.prefill_progress = std::min(req.prompt_len, req.prefill_progress + chunk);
  if (req.PrefillDone()) {
    req.state = RequestState::kRunning;
  }
}

void RequestPool::CommitToken(RequestId id, Token token, SimTime now) {
  Request& req = Get(id);
  ADASERVE_CHECK(req.state == RequestState::kRunning) << "commit on non-running " << id;
  req.output.push_back(token);
  req.token_times.push_back(now);
  ++req.committed_len;
  if (req.first_token_time < 0.0) {
    req.first_token_time = now;
  }
  if (req.DecodeDone()) {
    Finish(id, now);
  }
}

long RequestPool::SumContextTokens(const std::vector<RequestId>& ids) const {
  long sum = 0;
  for (RequestId id : ids) {
    sum += Get(id).KvTokens();
  }
  return sum;
}

size_t RequestPool::RetireFinishedPrefix(const std::function<void(const Request&)>& sink) {
  size_t retired = 0;
  while (!requests_.empty() && requests_.front().state == RequestState::kFinished) {
    sink(requests_.front());
    requests_.pop_front();
    ++base_id_;
    ++retired;
  }
  return retired;
}

void RequestPool::Finish(RequestId id, SimTime now) {
  Request& req = Get(id);
  req.state = RequestState::kFinished;
  req.finish_time = now;
  ++finished_count_;
  kv_->Release(id);
  auto it = std::find(active_.begin(), active_.end(), id);
  ADASERVE_CHECK(it != active_.end()) << "finished request not active " << id;
  active_.erase(it);
  if (release_payload_on_finish_) {
    // Park the payload buffers for reuse by future arrivals, then clear
    // the (moved-from) vectors so the request keeps only scalars.
    token_pool_.Release(std::move(req.output));
    time_pool_.Release(std::move(req.token_times));
    req.ReleasePayload();
  }
}

}  // namespace adaserve
