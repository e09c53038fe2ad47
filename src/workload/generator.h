// Workload assembly: arrival times x category mix x length sampling.
//
// Every workload is an ArrivalStream. WorkloadStream samples category and
// lengths per request as it pulls arrivals from an ArrivalProcess, so the
// engine can serve million-request workloads holding only the active set
// in memory; the factories below (and Experiment::RealTraceStream for the
// Fig. 7 trace) configure it. Materialize() drains a stream into a vector
// where the whole trace is needed at once.
// BuildBurstyWorkload is the one vector builder: the Fig. 13 trace draws
// lengths category by category, a different workload from any stream.
#ifndef ADASERVE_SRC_WORKLOAD_GENERATOR_H_
#define ADASERVE_SRC_WORKLOAD_GENERATOR_H_

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "src/workload/arrival_stream.h"
#include "src/workload/categories.h"
#include "src/workload/request.h"
#include "src/workload/trace.h"

namespace adaserve {

// Constant category mix and length-sampling seed of a real-trace workload
// (Experiment::RealTraceStream).
struct WorkloadConfig {
  // Probability of each category for an arriving request. Must sum to ~1.
  std::array<double, kNumCategories> mix = {0.6, 0.2, 0.2};
  uint64_t seed = 7;
};

// Builds the Fig. 13 workload: one independent bursty arrival process per
// category, merged into a single request stream.
std::vector<Request> BuildBurstyWorkload(const std::vector<CategorySpec>& categories,
                                         const std::array<BurstSpec, kNumCategories>& bursts,
                                         double duration, uint64_t seed);

// --- streaming workload generation ------------------------------------------

// Category mix as a function of arrival time; lets the mix drift over a run
// (category churn).
using MixFunction = std::function<std::array<double, kNumCategories>(SimTime)>;

// Lazy request generator: pulls arrival times from an ArrivalProcess and
// samples category + lengths per request on demand, assigning dense
// sequential ids in arrival order. For a fixed (process seed, mix, sampling
// seed) the emitted request sequence is deterministic and identical to
// draining the stream into a vector up front.
class WorkloadStream final : public ArrivalStream {
 public:
  // `max_requests` caps the emitted count; the stream ends at the earlier
  // of process exhaustion and the cap.
  WorkloadStream(std::vector<CategorySpec> categories, std::unique_ptr<ArrivalProcess> arrivals,
                 MixFunction mix, uint64_t sampling_seed,
                 size_t max_requests = static_cast<size_t>(-1));

  bool Exhausted() override;
  const Request* Peek() override;
  Request Next() override;
  size_t emitted() const override { return emitted_; }

 private:
  // Pulls the next arrival into buffer_; sets done_ when the process ends.
  void Refill();

  std::vector<CategorySpec> categories_;
  std::unique_ptr<ArrivalProcess> arrivals_;
  MixFunction mix_;
  Rng rng_;
  size_t max_requests_;
  size_t emitted_ = 0;
  Request buffer_;
  bool have_buffer_ = false;
  bool done_ = false;
};

// A fixed mix, constant over time.
MixFunction ConstantMix(const std::array<double, kNumCategories>& mix);

// Linear drift from `start` at t=0 to `end` at t=duration (clamped after).
// Both mixes must be normalised; every interpolant then is too.
MixFunction DriftingMix(const std::array<double, kNumCategories>& start,
                        const std::array<double, kNumCategories>& end, double duration);

// Bursty stream driven by a Markov-modulated Poisson process.
struct MmppStreamConfig {
  MmppSpec mmpp;
  double duration = 120.0;
  uint64_t trace_seed = 42;
  std::array<double, kNumCategories> mix = {0.6, 0.2, 0.2};
  uint64_t sampling_seed = 7;
  size_t max_requests = static_cast<size_t>(-1);
};
std::unique_ptr<ArrivalStream> MakeMmppStream(const std::vector<CategorySpec>& categories,
                                              const MmppStreamConfig& config);

// Diurnal stream: time-of-day rate modulation with a fixed category mix.
struct DiurnalStreamConfig {
  DiurnalSpec diurnal;
  double duration = 120.0;
  double mean_rps = 4.0;
  uint64_t trace_seed = 42;
  std::array<double, kNumCategories> mix = {0.6, 0.2, 0.2};
  uint64_t sampling_seed = 7;
  size_t max_requests = static_cast<size_t>(-1);
};
std::unique_ptr<ArrivalStream> MakeDiurnalStream(const std::vector<CategorySpec>& categories,
                                                 const DiurnalStreamConfig& config);

// Category-churn stream: Poisson arrivals whose category mix drifts
// linearly from `start_mix` to `end_mix` over the run.
struct ChurnStreamConfig {
  double duration = 120.0;
  double mean_rps = 4.0;
  uint64_t trace_seed = 42;
  std::array<double, kNumCategories> start_mix = {0.8, 0.1, 0.1};
  std::array<double, kNumCategories> end_mix = {0.1, 0.1, 0.8};
  uint64_t sampling_seed = 7;
  size_t max_requests = static_cast<size_t>(-1);
};
std::unique_ptr<ArrivalStream> MakeChurnStream(const std::vector<CategorySpec>& categories,
                                               const ChurnStreamConfig& config);

}  // namespace adaserve

#endif  // ADASERVE_SRC_WORKLOAD_GENERATOR_H_
