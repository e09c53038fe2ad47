#include "src/workload/generator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/logging.h"

namespace adaserve {
namespace {

void CheckMix(const std::array<double, kNumCategories>& mix) {
  double mix_sum = 0.0;
  for (double m : mix) {
    ADASERVE_CHECK(m >= 0.0) << "negative mix weight";
    mix_sum += m;
  }
  ADASERVE_CHECK(std::abs(mix_sum - 1.0) < 1e-6) << "category mix must sum to 1, got " << mix_sum;
}

// Draws a category index for uniform sample `u`; falls through to the last
// category on rounding.
int SampleCategory(const std::array<double, kNumCategories>& mix, double u) {
  int category = 0;
  double cum = 0.0;
  for (int c = 0; c < kNumCategories; ++c) {
    cum += mix[static_cast<size_t>(c)];
    if (u < cum) {
      return c;
    }
    category = c;
  }
  return category;
}

Request MakeRequest(RequestId id, SimTime arrival, int category,
                    const std::vector<CategorySpec>& categories, Rng& rng) {
  const CategorySpec& spec = categories[static_cast<size_t>(category)];
  Request req;
  req.id = id;
  req.category = category;
  req.tpot_slo = spec.tpot_slo;
  req.arrival = arrival;
  req.prompt_len = spec.prompt_len.Sample(rng);
  // Minimum 2 output tokens so the TPOT denominator is well defined.
  req.target_output_len = std::max(2, spec.output_len.Sample(rng));
  req.stream_seed = HashCombine(Mix64(0xadaceedeULL), static_cast<uint64_t>(id));
  return req;
}

}  // namespace

std::vector<Request> BuildBurstyWorkload(const std::vector<CategorySpec>& categories,
                                         const std::array<BurstSpec, kNumCategories>& bursts,
                                         double duration, uint64_t seed) {
  ADASERVE_CHECK(categories.size() == kNumCategories) << "expected a full category table";
  Rng rng(seed);
  std::vector<Request> requests;
  for (int c = 0; c < kNumCategories; ++c) {
    const std::vector<SimTime> arrivals = BurstyArrivals(
        bursts[static_cast<size_t>(c)], duration, HashCombine(seed, static_cast<uint64_t>(c)));
    for (SimTime arrival : arrivals) {
      requests.push_back(MakeRequest(/*id=*/0, arrival, c, categories, rng));
    }
  }
  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) { return a.arrival < b.arrival; });
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = static_cast<RequestId>(i);
    requests[i].stream_seed = HashCombine(Mix64(0xadaceedeULL), static_cast<uint64_t>(i));
  }
  return requests;
}

// --- streaming workload generation ------------------------------------------

WorkloadStream::WorkloadStream(std::vector<CategorySpec> categories,
                               std::unique_ptr<ArrivalProcess> arrivals, MixFunction mix,
                               uint64_t sampling_seed, size_t max_requests)
    : categories_(std::move(categories)),
      arrivals_(std::move(arrivals)),
      mix_(std::move(mix)),
      rng_(sampling_seed),
      max_requests_(max_requests) {
  ADASERVE_CHECK(categories_.size() == kNumCategories) << "expected a full category table";
  ADASERVE_CHECK(arrivals_ != nullptr) << "null arrival process";
  ADASERVE_CHECK(mix_ != nullptr) << "null mix function";
}

void WorkloadStream::Refill() {
  if (have_buffer_ || done_) {
    return;
  }
  if (emitted_ >= max_requests_) {
    done_ = true;
    return;
  }
  const SimTime arrival = arrivals_->Next();
  if (arrival == kNoMoreArrivals) {
    done_ = true;
    return;
  }
  const std::array<double, kNumCategories> mix = mix_(arrival);
  CheckMix(mix);
  const int category = SampleCategory(mix, rng_.Uniform());
  buffer_ = MakeRequest(static_cast<RequestId>(emitted_), arrival, category, categories_, rng_);
  have_buffer_ = true;
}

bool WorkloadStream::Exhausted() {
  Refill();
  return !have_buffer_;
}

const Request* WorkloadStream::Peek() {
  Refill();
  return have_buffer_ ? &buffer_ : nullptr;
}

Request WorkloadStream::Next() {
  Refill();
  ADASERVE_CHECK(have_buffer_) << "Next() on exhausted stream";
  have_buffer_ = false;
  ++emitted_;
  return buffer_;
}

MixFunction ConstantMix(const std::array<double, kNumCategories>& mix) {
  return [mix](SimTime) { return mix; };
}

MixFunction DriftingMix(const std::array<double, kNumCategories>& start,
                        const std::array<double, kNumCategories>& end, double duration) {
  ADASERVE_CHECK(duration > 0.0) << "drift duration must be positive";
  CheckMix(start);
  CheckMix(end);
  return [start, end, duration](SimTime t) {
    const double w = std::clamp(t / duration, 0.0, 1.0);
    std::array<double, kNumCategories> mix;
    for (size_t c = 0; c < static_cast<size_t>(kNumCategories); ++c) {
      mix[c] = (1.0 - w) * start[c] + w * end[c];
    }
    return mix;
  };
}

std::unique_ptr<ArrivalStream> MakeMmppStream(const std::vector<CategorySpec>& categories,
                                              const MmppStreamConfig& config) {
  auto process = std::make_unique<MmppProcess>(config.mmpp, config.duration, config.trace_seed);
  return std::make_unique<WorkloadStream>(categories, std::move(process),
                                          ConstantMix(config.mix), config.sampling_seed,
                                          config.max_requests);
}

std::unique_ptr<ArrivalStream> MakeDiurnalStream(const std::vector<CategorySpec>& categories,
                                                 const DiurnalStreamConfig& config) {
  auto process =
      MakeDiurnalProcess(config.diurnal, config.duration, config.mean_rps, config.trace_seed);
  ADASERVE_CHECK(process != nullptr) << "diurnal envelope is silent";
  return std::make_unique<WorkloadStream>(categories, std::move(process),
                                          ConstantMix(config.mix), config.sampling_seed,
                                          config.max_requests);
}

std::unique_ptr<ArrivalStream> MakeChurnStream(const std::vector<CategorySpec>& categories,
                                               const ChurnStreamConfig& config) {
  auto process = MakePoissonProcess(config.duration, config.mean_rps, config.trace_seed);
  return std::make_unique<WorkloadStream>(
      categories, std::move(process),
      DriftingMix(config.start_mix, config.end_mix, config.duration), config.sampling_seed,
      config.max_requests);
}

}  // namespace adaserve
