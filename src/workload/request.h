// Request object: the unit of work flowing through every serving system.
#ifndef ADASERVE_SRC_WORKLOAD_REQUEST_H_
#define ADASERVE_SRC_WORKLOAD_REQUEST_H_

#include <string>
#include <vector>

#include "src/common/types.h"

namespace adaserve {

enum class RequestState {
  // Arrived, not yet admitted to the GPU (no KV allocation).
  kQueued,
  // Admitted; prompt prefill in progress (possibly chunked).
  kPrefilling,
  // Decoding output tokens.
  kRunning,
  // Paused mid-prefill by a preemptive eviction (KV swapped out, prefill
  // progress preserved); waits in the admission queue and resumes where
  // it left off on re-admission.
  kPaused,
  // All output tokens committed.
  kFinished,
  // Kept only as a name: slobench reads it. Nothing in src/ sets it now.
  kRejected,
};

struct Request {
  // --- immutable description ---
  RequestId id = kInvalidRequestId;
  // Category index into the workload's category table (Table 2).
  int category = 0;
  // TPOT SLO in seconds.
  double tpot_slo = 0.0;
  SimTime arrival = 0.0;
  int prompt_len = 0;
  int target_output_len = 0;
  // Seed keying this request's token streams in the synthetic LM.
  uint64_t stream_seed = 0;

  // --- mutable serving state ---
  RequestState state = RequestState::kQueued;
  // Prompt tokens prefilled so far (== prompt_len once prefill completes).
  int prefill_progress = 0;
  // Committed output token count. Tracks output.size() while serving; stays
  // valid after ReleasePayload() frees the token vectors in streaming runs.
  int committed_len = 0;
  // Committed output tokens and their commit timestamps.
  std::vector<Token> output;
  std::vector<SimTime> token_times;
  SimTime first_token_time = -1.0;
  SimTime finish_time = -1.0;
  // Start of the first decode iteration that included this request; the
  // paper's l_i is measured from here.
  SimTime decode_start_time = -1.0;

  // --- speculation bookkeeping (SD systems only) ---
  long verifications = 0;
  long accepted_tokens = 0;
  long verified_tokens = 0;

  int output_len() const { return committed_len; }
  bool PrefillDone() const { return prefill_progress >= prompt_len; }
  bool DecodeDone() const { return output_len() >= target_output_len; }
  // Tokens of KV cache this request occupies.
  long KvTokens() const { return prefill_progress + output_len(); }
  // The deadline by which the next output token must commit to keep the
  // TPOT SLO: first_token_time + committed_len * tpot_slo once decoding
  // has started, arrival + tpot_slo before the first token exists (the
  // first token's deadline proxy — TTFT is not the gated metric, but a
  // request that has not even produced token one is at least this
  // urgent). The key of every kEdf ranking, victim and ordering decision.
  SimTime NextTokenDeadline() const {
    return first_token_time >= 0.0 ? first_token_time + committed_len * tpot_slo
                                   : arrival + tpot_slo;
  }

  // Frees the per-token payload (output tokens, commit timestamps) of a
  // finished request, keeping every metrics-relevant scalar. Streaming runs
  // call this at finish so resident memory stays O(active requests).
  void ReleasePayload();

  // Average time-per-output-token over the decode phase: the span from the
  // first token (produced by prefill) to completion, divided by the number
  // of decode-produced tokens. Requires the request to be finished with at
  // least two output tokens.
  double AvgTpot() const;

  // True if the finished request met its TPOT SLO.
  bool Attained() const;

  // Mean accepted speculated tokens per verification step.
  double MeanAccepted() const;
};

// The one check on an arrival row read from outside the program (a trace
// CSV row or a replay artifact's arrival line). A row passes when its
// arrival is finite, at least 0 and not before `previous_arrival`; its
// prompt has at least 1 token; its output has at least 2 (AvgTpot needs
// a decode step); its category is in [0, kNumCategories); and its
// tpot_slo is finite and positive. Returns "" for a passing row, else a
// message naming the first failing field and its value.
std::string ArrivalRowError(const Request& row, SimTime previous_arrival);

}  // namespace adaserve

#endif  // ADASERVE_SRC_WORKLOAD_REQUEST_H_
