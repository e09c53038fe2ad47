#include "src/cluster/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "src/cluster/router.h"
#include "tests/test_util.h"

namespace adaserve {
namespace {

std::vector<ReplicaRouterState> MakeStates(const std::vector<double>& backlogs) {
  std::vector<ReplicaRouterState> states(backlogs.size());
  for (size_t i = 0; i < states.size(); ++i) {
    states[i].backlog_until = backlogs[i];
  }
  return states;
}

Request MakeRequest(double arrival = 0.0, double tpot_slo = 0.05) {
  Request req;
  req.arrival = arrival;
  req.tpot_slo = tpot_slo;
  req.prompt_len = 64;
  req.target_output_len = 24;
  return req;
}

TEST(Router, RoundRobinCycles) {
  auto router = MakeRouter(RouterPolicy::kRoundRobin);
  const std::vector<ReplicaRouterState> states = MakeStates({0, 0, 0});
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(router->Route(MakeRequest(), states), static_cast<size_t>(i % 3));
  }
}

TEST(Router, JoinShortestQueuePicksLeastBacklog) {
  auto router = MakeRouter(RouterPolicy::kJoinShortestQueue);
  // Request arrives at t=1: replica backlogs beyond t=1 are 4, 0, and 2s.
  EXPECT_EQ(router->Route(MakeRequest(/*arrival=*/1.0), MakeStates({5.0, 0.5, 3.0})), 1u);
  // All drained by the arrival time: equal (zero) backlog, lowest index.
  EXPECT_EQ(router->Route(MakeRequest(/*arrival=*/10.0), MakeStates({5.0, 0.5, 3.0})), 0u);
}

TEST(Router, JoinShortestQueueTiesBreakToLowestIndex) {
  auto router = MakeRouter(RouterPolicy::kJoinShortestQueue);
  EXPECT_EQ(router->Route(MakeRequest(), MakeStates({2.0, 1.0, 1.0})), 1u);
}

TEST(Router, PowerOfTwoChoicesIsSeedDeterministic) {
  RouterConfig config;
  config.seed = 77;
  auto a = MakeRouter(RouterPolicy::kPowerOfTwoChoices, config);
  auto b = MakeRouter(RouterPolicy::kPowerOfTwoChoices, config);
  const std::vector<ReplicaRouterState> states = MakeStates({3.0, 1.0, 2.0, 4.0});
  for (int i = 0; i < 200; ++i) {
    const Request req = MakeRequest(/*arrival=*/0.01 * i);
    const size_t ia = a->Route(req, states);
    const size_t ib = b->Route(req, states);
    EXPECT_EQ(ia, ib) << "same-seed po2c diverged at call " << i;
    EXPECT_LT(ia, states.size());
  }
}

TEST(Router, PowerOfTwoChoicesPrefersShorterOfItsPair) {
  // With two replicas the sampled pair is always {0, 1}, so po2c must
  // behave exactly like JSQ.
  auto router = MakeRouter(RouterPolicy::kPowerOfTwoChoices);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(router->Route(MakeRequest(), MakeStates({4.0, 1.0})), 1u);
  }
}

TEST(Router, SloAwareSteersByTpotSlo) {
  auto router = MakeRouter(RouterPolicy::kSloAware);
  // Replicas 0/1 are spec-decode-strong, 2/3 weak; 1 and 3 have the
  // shorter backlogs within their halves.
  std::vector<ReplicaRouterState> states = MakeStates({3.0, 1.0, 2.5, 0.5});
  states[0].spec_strength = 4.0;
  states[1].spec_strength = 4.0;
  states[2].spec_strength = 1.0;
  states[3].spec_strength = 1.0;
  // Tight TPOT (below the 0.10 s urgent threshold): least backlog among
  // the strong replicas, even though replica 3 is globally shortest.
  EXPECT_EQ(router->Route(MakeRequest(0.0, /*tpot_slo=*/0.05), states), 1u);
  // Relaxed TPOT: least backlog among the weak replicas.
  EXPECT_EQ(router->Route(MakeRequest(0.0, /*tpot_slo=*/0.15), states), 3u);
}

TEST(Router, SloAwareFallsBackWhenSubsetIsEmpty) {
  auto router = MakeRouter(RouterPolicy::kSloAware);
  // Uniform spec strength: no replica is strictly above the mean, so
  // urgent requests must fall back to fleet-wide least backlog.
  std::vector<ReplicaRouterState> states = MakeStates({2.0, 0.5, 1.0});
  for (ReplicaRouterState& s : states) {
    s.spec_strength = 2.0;
  }
  EXPECT_EQ(router->Route(MakeRequest(0.0, /*tpot_slo=*/0.05), states), 1u);
}

ClusterConfig MakeTestClusterConfig(RouterPolicy policy, int threads, int replicas = 2) {
  ClusterConfig config;
  for (int i = 0; i < replicas; ++i) {
    ReplicaSpec spec;
    spec.setup = TestSetup();
    if (i % 2 == 1) {
      // Heterogeneous fleet: odd replicas run double-width TP (the test
      // setup is TP=2), so their roofline — and with it the router-side
      // service_tps — genuinely differs.
      spec.setup.tensor_parallel = 4;
      spec.setup.label += "-tp4";
    }
    config.replicas.push_back(std::move(spec));
  }
  config.router = policy;
  config.threads = threads;
  return config;
}

std::vector<Request> TestWorkload() {
  const Experiment exp(TestSetup());
  return SmallMixedWorkload(exp, /*duration=*/6.0, /*rps=*/3.0);
}

TEST(Cluster, PartitionPreservesOrderAndRequests) {
  const std::vector<Request> workload = TestWorkload();
  for (RouterPolicy policy : AllRouterPolicies()) {
    const Cluster cluster(MakeTestClusterConfig(policy, /*threads=*/1, /*replicas=*/3));
    MaterializedStream stream(workload);
    const std::vector<std::vector<Request>> parts = cluster.Partition(stream);
    ASSERT_EQ(parts.size(), 3u);
    size_t total = 0;
    std::map<uint64_t, int> seed_counts;
    for (const std::vector<Request>& part : parts) {
      double last_arrival = 0.0;
      for (size_t i = 0; i < part.size(); ++i) {
        // Dense sequential ids, as the request pool requires.
        EXPECT_EQ(part[i].id, static_cast<RequestId>(i));
        // Arrival order inherited from the stream.
        EXPECT_GE(part[i].arrival, last_arrival);
        last_arrival = part[i].arrival;
        ++seed_counts[part[i].stream_seed];
      }
      total += part.size();
    }
    // Nothing lost, nothing duplicated: every stream seed appears exactly
    // as often as in the source workload.
    EXPECT_EQ(total, workload.size());
    std::map<uint64_t, int> want;
    for (const Request& req : workload) {
      ++want[req.stream_seed];
    }
    EXPECT_EQ(seed_counts, want) << RouterPolicyName(policy);
  }
}

TEST(Cluster, PartitionIsDeterministic) {
  const std::vector<Request> workload = TestWorkload();
  for (RouterPolicy policy : AllRouterPolicies()) {
    const Cluster cluster(MakeTestClusterConfig(policy, /*threads=*/1, /*replicas=*/4));
    MaterializedStream s1(workload);
    MaterializedStream s2(workload);
    const auto p1 = cluster.Partition(s1);
    const auto p2 = cluster.Partition(s2);
    ASSERT_EQ(p1.size(), p2.size());
    for (size_t r = 0; r < p1.size(); ++r) {
      ASSERT_EQ(p1[r].size(), p2[r].size()) << RouterPolicyName(policy) << " replica " << r;
      for (size_t i = 0; i < p1[r].size(); ++i) {
        EXPECT_EQ(p1[r][i].stream_seed, p2[r][i].stream_seed);
        EXPECT_EQ(p1[r][i].arrival, p2[r][i].arrival);
      }
    }
  }
}

// The headline determinism guarantee: a same-seed cluster run is
// byte-identical at any thread count, for every routing policy.
TEST(Cluster, ThreadCountDoesNotChangeResultText) {
  const std::vector<Request> workload = TestWorkload();
  for (RouterPolicy policy : AllRouterPolicies()) {
    const Cluster serial(MakeTestClusterConfig(policy, /*threads=*/1));
    const Cluster parallel(MakeTestClusterConfig(policy, /*threads=*/4));
    MaterializedStream s1(workload);
    MaterializedStream s4(workload);
    const std::string text1 = serial.Run(SystemKind::kAdaServe, s1).Text();
    const std::string text4 = parallel.Run(SystemKind::kAdaServe, s4).Text();
    EXPECT_EQ(text1, text4) << RouterPolicyName(policy)
                            << ": threads=1 vs threads=4 diverged";
    EXPECT_FALSE(text1.empty());
  }
}

// A one-replica cluster is just the bare engine with extra bookkeeping:
// its merged metrics must match Experiment::Run on the same workload.
TEST(Cluster, SingleReplicaMatchesBareEngine) {
  const std::vector<Request> workload = TestWorkload();
  const Cluster cluster(MakeTestClusterConfig(RouterPolicy::kRoundRobin, /*threads=*/1,
                                              /*replicas=*/1));
  MaterializedStream stream(workload);
  const ClusterResult via_cluster = cluster.Run(SystemKind::kAdaServe, stream);
  ASSERT_EQ(via_cluster.replicas.size(), 1u);
  EXPECT_EQ(via_cluster.replicas[0].routed, workload.size());

  const Experiment exp(TestSetup());
  auto scheduler = MakeScheduler(SystemKind::kAdaServe);
  const EngineResult bare = exp.Run(*scheduler, workload);

  EXPECT_EQ(GoldenMetricsText(SystemKind::kAdaServe, via_cluster.metrics.merged),
            GoldenMetricsText(SystemKind::kAdaServe, bare.metrics));
  EXPECT_EQ(via_cluster.end_time, bare.end_time);
}

TEST(Cluster, MergedMetricsSumPerReplicaCounters) {
  const std::vector<Request> workload = TestWorkload();
  const Cluster cluster(MakeTestClusterConfig(RouterPolicy::kJoinShortestQueue,
                                              /*threads=*/2, /*replicas=*/2));
  MaterializedStream stream(workload);
  const ClusterResult result = cluster.Run(SystemKind::kAdaServe, stream);
  long finished = 0;
  size_t routed = 0;
  double max_makespan = 0.0;
  for (const ReplicaRunResult& replica : result.replicas) {
    finished += replica.result.metrics.finished;
    routed += replica.routed;
    max_makespan = std::max(max_makespan, replica.result.metrics.makespan);
  }
  EXPECT_EQ(result.metrics.merged.finished, finished);
  EXPECT_EQ(routed, workload.size());
  EXPECT_EQ(result.metrics.merged.makespan, max_makespan);
  EXPECT_GT(result.metrics.merged.finished, 0);
}

TEST(Cluster, SeedRouterStatesExposeHeterogeneity) {
  const Cluster cluster(MakeTestClusterConfig(RouterPolicy::kSloAware, /*threads=*/1,
                                              /*replicas=*/2));
  const std::vector<ReplicaRouterState> states = cluster.SeedRouterStates();
  ASSERT_EQ(states.size(), 2u);
  for (const ReplicaRouterState& s : states) {
    EXPECT_EQ(s.backlog_until, 0.0);
    EXPECT_GT(s.service_tps, 0.0);
    EXPECT_GT(s.spec_strength, 0.0);
  }
  // The TP=2 replica drains faster — its roofline service rate is higher.
  EXPECT_GT(states[1].service_tps, states[0].service_tps);
}

// EDF replicas behind the SLO-aware router: the deadline-theoretic
// baseline composes with the cluster layer like every other system, and
// keeps the thread-count byte-identity guarantee.
TEST(Cluster, EdfReplicasBehindSloAwareRouterAreDeterministic) {
  const std::vector<Request> workload = TestWorkload();
  const Cluster serial(MakeTestClusterConfig(RouterPolicy::kSloAware, /*threads=*/1));
  const Cluster parallel(MakeTestClusterConfig(RouterPolicy::kSloAware, /*threads=*/4));
  MaterializedStream s1(workload);
  MaterializedStream s4(workload);
  const ClusterResult r1 = serial.Run(SystemKind::kEdf, s1);
  const std::string text4 = parallel.Run(SystemKind::kEdf, s4).Text();
  EXPECT_EQ(r1.Text(), text4) << "threads=1 vs threads=4 diverged";
  size_t routed = 0;
  long served = 0;
  for (const ReplicaRunResult& replica : r1.replicas) {
    routed += replica.routed;
    served += replica.result.metrics.finished;
  }
  EXPECT_EQ(routed, workload.size());
  // Every routed request is accounted for: it finished on its replica.
  EXPECT_EQ(served, static_cast<long>(workload.size()));
}

}  // namespace
}  // namespace adaserve
