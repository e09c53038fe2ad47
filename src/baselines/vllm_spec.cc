#include "src/baselines/vllm_spec.h"

#include "src/common/logging.h"
#include "src/spec/sequence_spec.h"

namespace adaserve {

VllmSpecScheduler::VllmSpecScheduler(const VllmSpecConfig& config)
    : config_(config), name_("vLLM-Spec(" + std::to_string(config.spec_len) + ")") {
  ADASERVE_CHECK(config_.spec_len >= 1) << "speculation length must be >= 1";
}

IterationRecord VllmSpecScheduler::DecodePhase(SimTime now, RequestPool& pool,
                                               ServingContext& ctx) {
  IterationRecord record;
  const std::vector<RequestId> running = RunningRequests(pool);
  if (running.empty()) {
    return record;
  }
  const int n = static_cast<int>(running.size());
  const int k = config_.spec_len;

  // Draft phase: k sequential draft-model steps over the whole batch.
  const long draft_context = pool.SumContextTokens(running);
  SimTime spec_time = 0.0;
  for (int step = 0; step < k; ++step) {
    spec_time += ctx.draft_latency->ForwardLatency(n, draft_context + n * step,
                                                   /*use_cuda_graph=*/true);
  }

  // Verification: each request contributes its root + k chain tokens.
  const long verify_context = pool.SumContextTokens(running);
  const SimTime verify_time = ctx.target_latency->ForwardLatency(n * (k + 1), verify_context,
                                                                 /*use_cuda_graph=*/true);
  const SimTime latency = spec_time + verify_time;
  const SimTime end = now + latency;

  for (RequestId id : running) {
    const Request& req = pool.Get(id);
    BuildChainTree(*ctx.draft, req.stream_seed, req.output, k, scratch_, chain_);
    CommitVerifiedTree(now, end, pool, ctx, id, chain_, /*selected=*/{}, record);
  }

  record.duration = latency;
  record.spec_time = spec_time;
  record.verify_time = verify_time;
  record.decode_requests = n;
  return record;
}

}  // namespace adaserve
