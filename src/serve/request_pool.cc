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

std::deque<RequestId>::iterator RequestPool::RankedHead(const AdmissionRanker& rank) {
  auto head = queued_.begin();
  if (!rank) {
    return head;
  }
  // Stable min under the ranker: only a strictly better-ranked request
  // displaces the current head, so ties keep queue (arrival) order.
  for (auto it = std::next(head); it != queued_.end(); ++it) {
    if (rank(Get(*it), Get(*head))) {
      head = it;
    }
  }
  return head;
}

RequestId RequestPool::TryAdmitAt(std::deque<RequestId>::iterator head) {
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

RequestId RequestPool::TryAdmit(int max_active, const AdmissionRanker& rank) {
  if (queued_.empty() || static_cast<int>(active_.size()) >= max_active) {
    return kInvalidRequestId;
  }
  return TryAdmitAt(RankedHead(rank));
}

int RequestPool::AdmitUpTo(int max_active, const AdmissionRanker& rank) {
  int admitted = 0;
  while (TryAdmit(max_active, rank) != kInvalidRequestId) {
    ++admitted;
  }
  return admitted;
}

RequestId RequestPool::AdmitWithEviction(int max_active, int max_evictions, int* evicted,
                                         const AdmissionRanker& rank,
                                         const VictimSelector& select_victim,
                                         EvictionStyle style) {
  if (queued_.empty() || static_cast<int>(active_.size()) >= max_active) {
    return kInvalidRequestId;  // Blocked on slots, not KV.
  }
  // One ranked-head scan serves both the plain attempt and the eviction
  // path (the ranker rescan would be O(queue) on the per-tick hot path).
  const auto head_it = RankedHead(rank);
  const RequestId admitted = TryAdmitAt(head_it);
  if (admitted != kInvalidRequestId) {
    return admitted;
  }
  // The head is blocked on KV. Set it aside so evicted requests queue
  // behind it, then evict victims until its worst-case footprint fits.
  const RequestId head = *head_it;
  queued_.erase(head_it);
  const long footprint = Get(head).prompt_len + Get(head).target_output_len;
  int evictions = 0;
  while (evictions < max_evictions && !kv_->CanReserve(footprint)) {
    RequestId victim = kInvalidRequestId;
    if (select_victim) {
      victim = select_victim(Get(head), *this);
    } else {
      for (auto it = active_.rbegin(); it != active_.rend(); ++it) {
        if (Get(*it).committed_len == 0) {
          victim = *it;
          break;
        }
      }
    }
    if (victim == kInvalidRequestId) {
      break;  // Nothing (more) the policy is willing to evict.
    }
    // Each push_front reverses eviction order: the default newest-first
    // selector leaves victims queued in ascending (arrival) order, the
    // SLO-aware loosest-first selector leaves tighter-SLO victims first.
    if (style == EvictionStyle::kPause) {
      Pause(victim);
    } else {
      Evict(victim);
    }
    ++evictions;
  }
  queued_.push_front(head);
  if (evicted != nullptr) {
    *evicted += evictions;
  }
  // Admit the head we evicted for, not a ranker rescan: the room was
  // made for this specific request (victims rank no better than it
  // under the paired policies), and the front slot is where it sits.
  return TryAdmitAt(queued_.begin());
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
