// Hardware-aware token budget derivation (§1, §3 footnote 1, §5).
//
// AdaServe "chooses an optimal budget that balances decoding throughput and
// latency" from a profiling-based roofline. We derive the verification token
// budget B as the batch size at which per-iteration latency reaches a slack
// multiple of the memory-bound floor: below the knee extra tokens are nearly
// free; past `latency_slack` x floor they cost linearly and hurt TPOT.
#ifndef ADASERVE_SRC_HW_BUDGET_H_
#define ADASERVE_SRC_HW_BUDGET_H_

#include "src/hw/latency_model.h"

namespace adaserve {

struct BudgetConfig {
  // Target iteration latency as a multiple of the memory-bound floor.
  double latency_slack = 1.5;
  // Typical per-request context length assumed when profiling KV reads.
  long typical_context = 1024;
  // Typical number of concurrent requests assumed when profiling.
  int typical_batch = 16;
  // Hard bounds on the derived budget.
  int min_budget = 16;
  int max_budget = 2048;
};

// Verification-side token budget (the paper's B / B1).
int DeriveTokenBudget(const LatencyModel& verifier, const BudgetConfig& config = {});

// Speculator-side per-step token budget (the paper's B2): how many draft
// tokens can be decoded per step while staying within `fraction` of the
// verifier's memory-bound floor.
int DeriveDraftBudget(const LatencyModel& verifier, const LatencyModel& draft, double fraction = 0.25,
                      const BudgetConfig& config = {});

// Decode-throughput proxy of one replica: tokens per second of a
// budget-sized verification batch under the profiling assumptions the
// budget derivation itself uses (BudgetConfig typical batch/context).
// Seeds the cluster router's per-replica service rate.
double DeriveServiceTps(const LatencyModel& target, const BudgetConfig& config = {});

}  // namespace adaserve

#endif  // ADASERVE_SRC_HW_BUDGET_H_
