// The benchmark's own arithmetic, kept free of the simulator so that
// arith_test.cc can pin it on small hand-built results.
#ifndef SLOBENCH_BENCH_MATH_H_
#define SLOBENCH_BENCH_MATH_H_

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

namespace slobench {

// Outcome counts of one system over the requests it was sent.
struct SentCounts {
  long sent = 0;
  long finished = 0;
  long rejected = 0;
  // Finished requests that met their category's TPOT SLO.
  long attained = 0;

  // Requests that were neither finished nor rejected when the run ended.
  long Unfinished() const { return sent - finished - rejected; }

  SentCounts& operator+=(const SentCounts& o) {
    sent += o.sent;
    finished += o.finished;
    rejected += o.rejected;
    attained += o.attained;
    return *this;
  }
};

// Share of requests *sent* that finished within their SLO, in percent. A
// rejected or unfinished request counts as a miss, unlike
// Metrics::AttainmentPct, which divides by the finished count.
inline double AttainmentOverSentPct(const SentCounts& c) {
  if (c.sent <= 0) {
    throw std::invalid_argument("attainment over zero requests sent");
  }
  return 100.0 * static_cast<double>(c.attained) / static_cast<double>(c.sent);
}

// The best (highest) baseline attainment.
inline double BestBaseline(std::span<const double> baselines) {
  if (baselines.empty()) {
    throw std::invalid_argument("no baselines");
  }
  return *std::max_element(baselines.begin(), baselines.end());
}

// AdaServe's attainment minus the best baseline's, in percentage points
// (the paper's claim is that this is >= 0).
inline double MarginPts(double adaserve, std::span<const double> baselines) {
  return adaserve - BestBaseline(baselines);
}

// AdaServe's attainment as a percentage of the best baseline's: 100 is a
// tie, below 100 is the inversion. Unlike MarginPts it never crosses zero,
// so a relative regression bound on it stays meaningful.
inline double RatioToBestPct(double adaserve, std::span<const double> baselines) {
  const double best = BestBaseline(baselines);
  if (best <= 0.0) {
    throw std::invalid_argument("best baseline attained nothing");
  }
  return 100.0 * adaserve / best;
}

// Admission-queue depth rebuilt from the per-tick trace counters: arrivals
// join the queue, admissions leave it, evicted and paused requests rejoin
// it, rejected requests leave it for good. depth() is the queue length
// after the last tick fed in.
class QueueDepth {
 public:
  void OnTick(long pulled, long admitted, long evicted, long paused, long rejected) {
    depth_ += pulled - admitted + evicted + paused - rejected;
    sum_ += static_cast<double>(depth_);
    ++ticks_;
  }

  long depth() const { return depth_; }
  long ticks() const { return ticks_; }
  // Mean depth over the ticks fed in (0 before the first tick).
  double Mean() const { return ticks_ == 0 ? 0.0 : sum_ / static_cast<double>(ticks_); }

 private:
  long depth_ = 0;
  double sum_ = 0.0;
  long ticks_ = 0;
};

// Median of a non-empty sample (mean of the two middle values for an even
// count).
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    throw std::invalid_argument("median of nothing");
  }
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

}  // namespace slobench

#endif  // SLOBENCH_BENCH_MATH_H_
