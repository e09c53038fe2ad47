#include "src/harness/report.h"

#include "src/common/types.h"

namespace adaserve {

void WriteRequestCsv(std::ostream& os, std::span<const Request> requests) {
  os << "id,category,arrival_s,prompt_len,output_len,tpot_slo_ms,avg_tpot_ms,ttft_ms,attained,"
        "verifications,accepted_tokens,verified_tokens\n";
  for (const Request& req : requests) {
    os << req.id << ',' << req.category << ',' << req.arrival << ',' << req.prompt_len << ','
       << req.output_len() << ',' << ToMs(req.tpot_slo) << ',' << ToMs(req.AvgTpot()) << ','
       << ToMs(req.first_token_time - req.arrival) << ',' << (req.Attained() ? 1 : 0) << ','
       << req.verifications << ',' << req.accepted_tokens << ',' << req.verified_tokens << '\n';
  }
}

IterationCsvSink::IterationCsvSink(std::ostream& os) : os_(os) {
  os_ << "duration_ms,spec_ms,select_ms,verify_ms,prefill_ms,prefill_tokens,decode_requests,"
         "verified_tokens,committed_tokens\n";
}

void IterationCsvSink::OnTick(const TickTraceEvent& event) {
  const IterationRecord& rec = event.record;
  os_ << ToMs(rec.duration) << ',' << ToMs(rec.spec_time) << ',' << ToMs(rec.select_time) << ','
      << ToMs(rec.verify_time) << ',' << ToMs(rec.prefill_time) << ',' << rec.prefill_tokens
      << ',' << rec.decode_requests << ',' << rec.verified_tokens << ',' << rec.committed_tokens
      << '\n';
  ++rows_;
}

}  // namespace adaserve
