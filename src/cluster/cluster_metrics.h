// Cluster-level metrics: deterministic merging of per-replica Metrics.
//
// Every replica finishes with its own Metrics; the cluster aggregate is
// their merge — counters and time sums add, per-category sample sets
// concatenate in replica order (so float-order-sensitive statistics are
// identical at any thread count), makespan is the fleet-wide wall clock
// (max over replicas: replicas run concurrently), and mean_accepted
// re-averages weighted by each replica's spec_requests. GoodputTps /
// ThroughputTps on the merged Metrics therefore read as fleet tokens/s
// over the cluster run.
#ifndef ADASERVE_SRC_CLUSTER_CLUSTER_METRICS_H_
#define ADASERVE_SRC_CLUSTER_CLUSTER_METRICS_H_

#include <span>
#include <string>
#include <vector>

#include "src/serve/metrics.h"

namespace adaserve {

// Merges per-replica end-of-run metrics into one cluster aggregate.
// Deterministic: a pure fold over `parts` in order. Empty parts (a
// replica the router never fed) merge as zeros — and because empty
// Samples contribute nothing, they cannot poison extrema or percentiles.
Metrics MergeMetrics(std::span<const Metrics> parts);

// Per-replica + merged view of one cluster run.
struct ClusterMetrics {
  std::vector<Metrics> per_replica;
  Metrics merged;
};

ClusterMetrics MakeClusterMetrics(std::vector<Metrics> per_replica);

// Canonical text of a cluster run for the golden/determinism machinery:
// the merged block first, then one block per replica (replica order),
// each MetricsBlockText followed by every category's p99 TPOT — byte-equal
// text means byte-equal runs.
// `labels` must parallel `metrics.per_replica`.
std::string ClusterMetricsText(const ClusterMetrics& metrics,
                               const std::vector<std::string>& labels);

}  // namespace adaserve

#endif  // ADASERVE_SRC_CLUSTER_CLUSTER_METRICS_H_
