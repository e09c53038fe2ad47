#include "src/cluster/cluster.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/hw/budget.h"

namespace adaserve {
namespace {

// Spec-decode strength: how many draft tokens fit in one target decode
// interval, discounted by draft fidelity — a faster or better-placed
// draft (own GPU, H100) and a higher-fidelity one both raise it.
double DeriveSpecStrength(const Setup& setup, const LatencyModel& target,
                          const LatencyModel& draft) {
  const double draft_latency = draft.BaselineDecodeLatency();
  if (draft_latency <= 0.0) {
    return 0.0;
  }
  return setup.draft_config.fidelity * target.BaselineDecodeLatency() / draft_latency;
}

}  // namespace

std::string ClusterResult::Text() const {
  std::vector<std::string> labels;
  labels.reserve(replicas.size());
  for (const ReplicaRunResult& r : replicas) {
    labels.push_back(r.label);
  }
  return ClusterMetricsText(metrics, labels);
}

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  ADASERVE_CHECK(!config_.replicas.empty()) << "cluster needs at least one replica";
  service_tps_.reserve(config_.replicas.size());
  spec_strength_.reserve(config_.replicas.size());
  for (const ReplicaSpec& spec : config_.replicas) {
    // Latency models alone (no synthetic LM) are cheap enough to build at
    // construction; the replica tasks rebuild their full Experiment.
    const LatencyModel target(spec.setup.target_profile, spec.setup.gpu,
                              spec.setup.tensor_parallel);
    const LatencyModel draft(spec.setup.draft_profile,
                             spec.setup.draft_gpu.value_or(spec.setup.gpu),
                             spec.setup.draft_tensor_parallel);
    service_tps_.push_back(DeriveServiceTps(target));
    spec_strength_.push_back(DeriveSpecStrength(spec.setup, target, draft));
  }
}

std::vector<ReplicaRouterState> Cluster::SeedRouterStates() const {
  std::vector<ReplicaRouterState> states(config_.replicas.size());
  for (size_t i = 0; i < states.size(); ++i) {
    states[i].service_tps = service_tps_[i];
    states[i].spec_strength = spec_strength_[i];
  }
  return states;
}

std::vector<std::vector<Request>> Cluster::Partition(ArrivalStream& stream) const {
  std::unique_ptr<Router> router = MakeRouter(config_.router, config_.router_config);
  std::vector<ReplicaRouterState> states = SeedRouterStates();
  std::vector<std::vector<Request>> partitions(config_.replicas.size());
  SimTime last_arrival = 0.0;
  while (!stream.Exhausted()) {
    Request req = stream.Next();
    ADASERVE_CHECK(req.arrival >= last_arrival)
        << "stream arrivals must be nondecreasing; got " << req.arrival << " after "
        << last_arrival;
    last_arrival = req.arrival;
    const size_t idx = router->Route(req, states);
    ADASERVE_CHECK(idx < partitions.size())
        << router->name() << " routed to replica " << idx << " of " << partitions.size();
    // Extend the chosen replica's virtual backlog by the request's
    // estimated service time (single-server drain model).
    ReplicaRouterState& state = states[idx];
    const double est_service =
        (static_cast<double>(req.prompt_len) * kPrefillTokenWeight +
         static_cast<double>(req.target_output_len)) /
        state.service_tps;
    state.backlog_until = std::max(state.backlog_until, static_cast<double>(req.arrival)) +
                          est_service;
    ++state.routed;
    // Dense per-replica ids: the request pool requires them, and request
    // content is keyed by stream_seed, which travels with the request.
    req.id = static_cast<RequestId>(partitions[idx].size());
    partitions[idx].push_back(std::move(req));
  }
  return partitions;
}

ClusterResult Cluster::RunPartitioned(SystemKind system,
                                      std::vector<std::vector<Request>> partitions) const {
  ADASERVE_CHECK(partitions.size() == config_.replicas.size())
      << "partition count " << partitions.size() << " != replica count "
      << config_.replicas.size();
  std::vector<size_t> routed_counts;
  routed_counts.reserve(partitions.size());
  for (const std::vector<Request>& p : partitions) {
    routed_counts.push_back(p.size());
  }
  SweepRunner runner(config_.threads);
  std::vector<std::function<EngineResult()>> tasks;
  tasks.reserve(partitions.size());
  for (size_t i = 0; i < partitions.size(); ++i) {
    const ReplicaSpec& spec = config_.replicas[i];
    std::vector<Request>& partition = partitions[i];
    // Everything the replica simulation touches is task-local: a fresh
    // Experiment, scheduler, and engine per task (the SweepRunner cell
    // contract), so replicas parallelize without sharing state.
    tasks.push_back([&spec, &partition, system] {
      const Experiment exp(spec.setup);
      auto scheduler = MakeScheduler(system);
      return exp.Run(*scheduler, std::move(partition), spec.engine);
    });
  }
  std::vector<Timed<EngineResult>> timed = runner.Map(tasks);

  ClusterResult result;
  result.replicas.reserve(timed.size());
  std::vector<Metrics> per_replica;
  per_replica.reserve(timed.size());
  for (size_t i = 0; i < timed.size(); ++i) {
    ReplicaRunResult replica;
    replica.label = config_.replicas[i].setup.label;
    replica.routed = routed_counts[i];
    replica.wall_clock_s = timed[i].wall_clock_s;
    replica.result = std::move(timed[i].value);
    result.end_time = std::max(result.end_time, replica.result.end_time);
    per_replica.push_back(replica.result.metrics);
    result.replicas.push_back(std::move(replica));
  }
  result.metrics = MakeClusterMetrics(std::move(per_replica));
  result.wall_clock_s = runner.total_wall_clock_s();
  return result;
}

ClusterResult Cluster::Run(SystemKind system, ArrivalStream& stream) const {
  return RunPartitioned(system, Partition(stream));
}

}  // namespace adaserve
