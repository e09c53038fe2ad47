#include "src/baselines/sarathi.h"

#include "src/common/logging.h"

namespace adaserve {

SarathiScheduler::SarathiScheduler(const SarathiConfig& config) : config_(config) {
  ADASERVE_CHECK(config_.chunk_budget >= 1) << "chunk budget must be >= 1";
}

std::vector<RequestId> SarathiScheduler::DecodeBatch(const RequestPool& pool) const {
  std::vector<RequestId> running = RunningRequests(pool);
  if (static_cast<int>(running.size()) > config_.chunk_budget) {
    running.resize(static_cast<size_t>(config_.chunk_budget));
  }
  return running;
}

IterationRecord SarathiScheduler::DecodePhase(SimTime now, RequestPool& pool,
                                              ServingContext& ctx) {
  return RunDecodeIteration(now, pool, ctx, DecodeBatch(pool));
}

IterationRecord SarathiScheduler::DrainStep(SimTime now, RequestPool& pool, ServingContext& ctx) {
  IterationRecord record;
  // Decode tokens first (Sarathi admits decodes before prefill chunks so
  // ongoing requests never starve), then fill the remaining budget with
  // prompt chunks, FIFO.
  const std::vector<RequestId> decode_batch = DecodeBatch(pool);
  const int decode_tokens = static_cast<int>(decode_batch.size());
  const PrefillPlan prefill = PlanPrefillChunks(pool, PrefillingRequests(pool),
                                                config_.chunk_budget - decode_tokens,
                                                /*burst=*/0);
  const int batch_tokens = decode_tokens + prefill.tokens;
  if (batch_tokens == 0) {
    return record;
  }

  std::vector<RequestId> all_ids = decode_batch;
  for (const PrefillChunk& c : prefill.chunks) {
    all_ids.push_back(c.id);
  }
  const long context = pool.SumContextTokens(all_ids);
  const SimTime latency = ctx.target_latency->ForwardLatency(batch_tokens, context,
                                                             /*use_cuda_graph=*/false);
  const SimTime end = now + latency;
  for (RequestId id : decode_batch) {
    CommitDecodeToken(now, end, pool, ctx, id, record);
  }
  ApplyPrefillChunks(pool, ctx, prefill.chunks, end, record);

  record.duration = latency;
  // Attribute time proportionally between decode and prefill work.
  const double prefill_share = static_cast<double>(record.prefill_tokens) / batch_tokens;
  record.prefill_time = latency * prefill_share;
  record.verify_time = latency - record.prefill_time;
  record.decode_requests = decode_tokens;
  return record;
}

}  // namespace adaserve
