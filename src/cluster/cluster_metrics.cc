#include "src/cluster/cluster_metrics.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "src/common/logging.h"

namespace adaserve {
namespace {

// Fixed-precision formatting, same shape as the golden harness: the
// simulation is deterministic, so equal runs produce byte-equal text.
std::string FmtFixed(double v, int digits = 6) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

void AppendMetricsBlock(std::ostringstream& os, const Metrics& m) {
  os << "finished: " << m.finished << "\n";
  os << "attained: " << m.attained << "\n";
  os << "output_tokens: " << m.output_tokens() << "\n";
  os << "throughput_tps: " << FmtFixed(m.ThroughputTps()) << "\n";
  os << "slo_attainment_pct: " << FmtFixed(m.AttainmentPct()) << "\n";
  os << "goodput_tps: " << FmtFixed(m.GoodputTps()) << "\n";
  os << "mean_accepted: " << FmtFixed(m.mean_accepted) << "\n";
  os << "makespan_s: " << FmtFixed(m.makespan) << "\n";
  for (int c = 0; c < kNumCategories; ++c) {
    const CategoryMetrics& cat = m.per_category[static_cast<size_t>(c)];
    os << "cat" << (c + 1) << ".finished: " << cat.finished << "\n";
    os << "cat" << (c + 1) << ".attainment_pct: " << FmtFixed(cat.AttainmentPct()) << "\n";
    os << "cat" << (c + 1) << ".mean_tpot_ms: " << FmtFixed(cat.tpot_ms.Mean()) << "\n";
    os << "cat" << (c + 1) << ".p99_tpot_ms: " << FmtFixed(cat.tpot_ms.Percentile(99)) << "\n";
  }
}

}  // namespace

Metrics MergeMetrics(std::span<const Metrics> parts) {
  Metrics merged;
  double accepted_weighted = 0.0;
  for (const Metrics& part : parts) {
    merged.finished += part.finished;
    merged.attained += part.attained;
    merged.makespan = std::max(merged.makespan, part.makespan);
    merged.spec_time += part.spec_time;
    merged.select_time += part.select_time;
    merged.verify_time += part.verify_time;
    merged.prefill_time += part.prefill_time;
    merged.total_time += part.total_time;
    merged.admissions += part.admissions;
    merged.evictions += part.evictions;
    merged.pauses += part.pauses;
    merged.spec_requests += part.spec_requests;
    accepted_weighted += part.mean_accepted * part.spec_requests;
    for (int c = 0; c < kNumCategories; ++c) {
      const CategoryMetrics& from = part.per_category[static_cast<size_t>(c)];
      CategoryMetrics& to = merged.per_category[static_cast<size_t>(c)];
      to.finished += from.finished;
      to.attained += from.attained;
      to.output_tokens += from.output_tokens;
      to.attained_tokens += from.attained_tokens;
      to.tpot_ms.Append(from.tpot_ms);
      to.ttft_ms.Append(from.ttft_ms);
    }
  }
  if (merged.spec_requests > 0) {
    merged.mean_accepted = accepted_weighted / merged.spec_requests;
  }
  // Match MetricsAccumulator::Finalize: the merged snapshot is final, so
  // pre-sort its sample sets for shared-cache percentile queries.
  for (CategoryMetrics& cat : merged.per_category) {
    cat.tpot_ms.MaterializeSorted();
    cat.ttft_ms.MaterializeSorted();
  }
  return merged;
}

ClusterMetrics MakeClusterMetrics(std::vector<Metrics> per_replica) {
  ClusterMetrics metrics;
  metrics.merged = MergeMetrics(per_replica);
  metrics.per_replica = std::move(per_replica);
  return metrics;
}

std::string ClusterMetricsText(const ClusterMetrics& metrics,
                               const std::vector<std::string>& labels) {
  ADASERVE_CHECK(labels.size() == metrics.per_replica.size())
      << "labels/replicas mismatch: " << labels.size() << " vs " << metrics.per_replica.size();
  std::ostringstream os;
  os << "cluster: merged (" << metrics.per_replica.size() << " replicas)\n";
  AppendMetricsBlock(os, metrics.merged);
  for (size_t i = 0; i < metrics.per_replica.size(); ++i) {
    os << "replica[" << i << "]: " << labels[i] << "\n";
    AppendMetricsBlock(os, metrics.per_replica[i]);
  }
  return os.str();
}

}  // namespace adaserve
