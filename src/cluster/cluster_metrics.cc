#include "src/cluster/cluster_metrics.h"

#include <utility>

#include "src/common/logging.h"
#include "src/common/text.h"

namespace adaserve {
namespace {

// MetricsBlockText, then each category's p99 TPOT.
std::string ReplicaBlockText(const Metrics& m) {
  std::string text = MetricsBlockText(m);
  for (int c = 0; c < kNumCategories; ++c) {
    text += "cat" + std::to_string(c + 1) + ".p99_tpot_ms: " +
            FormatFixed(m.per_category[static_cast<size_t>(c)].tpot_ms.Percentile(99), 6) + "\n";
  }
  return text;
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
  std::string text = "cluster: merged (" + std::to_string(metrics.per_replica.size()) +
                     " replicas)\n" + ReplicaBlockText(metrics.merged);
  for (size_t i = 0; i < metrics.per_replica.size(); ++i) {
    text += "replica[" + std::to_string(i) + "]: " + labels[i] + "\n" +
            ReplicaBlockText(metrics.per_replica[i]);
  }
  return text;
}

}  // namespace adaserve
