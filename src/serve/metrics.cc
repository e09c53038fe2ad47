#include "src/serve/metrics.h"

#include "src/common/logging.h"
#include "src/common/text.h"
#include "src/common/types.h"

namespace adaserve {

double Metrics::GoodputTps() const {
  if (makespan <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(attained_tokens()) / makespan;
}

double Metrics::ThroughputTps() const {
  if (makespan <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(output_tokens()) / makespan;
}

long Metrics::attained_tokens() const {
  long sum = 0;
  for (const auto& cat : per_category) {
    sum += cat.attained_tokens;
  }
  return sum;
}

long Metrics::output_tokens() const {
  long sum = 0;
  for (const auto& cat : per_category) {
    sum += cat.output_tokens;
  }
  return sum;
}

void MetricsAccumulator::AddRequest(const Request& req) {
  ADASERVE_CHECK(req.state == RequestState::kFinished)
      << "metrics over unfinished request " << req.id;
  ADASERVE_CHECK(req.category >= 0 && req.category < kNumCategories)
      << "bad category " << req.category;
  CategoryMetrics& cat = m_.per_category[static_cast<size_t>(req.category)];
  ++cat.finished;
  ++m_.finished;
  cat.output_tokens += req.output_len();
  cat.tpot_ms.Add(ToMs(req.AvgTpot()));
  cat.ttft_ms.Add(ToMs(req.first_token_time - req.arrival));
  if (req.Attained()) {
    ++cat.attained;
    ++m_.attained;
    cat.attained_tokens += req.output_len();
  }
  if (req.verifications > 0) {
    accepted_sum_ += req.MeanAccepted();
    ++spec_requests_;
  }
}

void MetricsAccumulator::AddIteration(const IterationRecord& rec) {
  m_.spec_time += rec.spec_time;
  m_.select_time += rec.select_time;
  m_.verify_time += rec.verify_time;
  m_.prefill_time += rec.prefill_time;
  m_.total_time += rec.duration;
  m_.admissions += rec.admitted;
  m_.evictions += rec.evicted;
  m_.pauses += rec.paused;
}

Metrics MetricsAccumulator::Finalize(SimTime makespan) const {
  Metrics m = m_;
  m.makespan = makespan;
  m.spec_requests = spec_requests_;
  if (spec_requests_ > 0) {
    m.mean_accepted = accepted_sum_ / spec_requests_;
  }
  // Pre-sort the per-category sample sets on the finalized snapshot:
  // percentile queries on the returned Metrics then share one cached sort
  // and — because const Percentile never writes — are safe from any
  // number of threads at once.
  for (CategoryMetrics& cat : m.per_category) {
    cat.tpot_ms.MaterializeSorted();
    cat.ttft_ms.MaterializeSorted();
  }
  return m;
}

namespace {

template <typename RequestContainer>
Metrics ComputeMetricsImpl(const RequestContainer& requests,
                           std::span<const IterationRecord> iterations, SimTime makespan) {
  MetricsAccumulator acc;
  for (const Request& req : requests) {
    acc.AddRequest(req);
  }
  for (const IterationRecord& rec : iterations) {
    acc.AddIteration(rec);
  }
  return acc.Finalize(makespan);
}

}  // namespace

std::string MetricsBlockText(const Metrics& m) {
  std::string text;
  const auto line = [&text](const std::string& key, const std::string& value) {
    text += key + ": " + value + "\n";
  };
  const auto fixed = [](double v) { return FormatFixed(v, 6); };
  line("finished", std::to_string(m.finished));
  line("attained", std::to_string(m.attained));
  line("output_tokens", std::to_string(m.output_tokens()));
  line("throughput_tps", fixed(m.ThroughputTps()));
  line("slo_attainment_pct", fixed(m.AttainmentPct()));
  line("goodput_tps", fixed(m.GoodputTps()));
  line("mean_accepted", fixed(m.mean_accepted));
  line("makespan_s", fixed(m.makespan));
  for (int c = 0; c < kNumCategories; ++c) {
    const CategoryMetrics& cat = m.per_category[static_cast<size_t>(c)];
    const std::string prefix = "cat" + std::to_string(c + 1) + ".";
    line(prefix + "finished", std::to_string(cat.finished));
    line(prefix + "attainment_pct", fixed(cat.AttainmentPct()));
    line(prefix + "mean_tpot_ms", fixed(cat.tpot_ms.Mean()));
  }
  return text;
}

Metrics ComputeMetrics(std::span<const Request> requests,
                       std::span<const IterationRecord> iterations, SimTime makespan) {
  return ComputeMetricsImpl(requests, iterations, makespan);
}

Metrics ComputeMetrics(const std::deque<Request>& requests,
                       std::span<const IterationRecord> iterations, SimTime makespan) {
  return ComputeMetricsImpl(requests, iterations, makespan);
}

}  // namespace adaserve
