// Checks the benchmark's own arithmetic (bench_math.h) on small hand-built
// results. Exits non-zero on the first failed check; run.py runs it before
// every benchmark run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <vector>

#include "bench_math.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

// 10 requests sent: 6 finished (4 within SLO), 2 rejected, 2 still queued
// at the end. Attainment is over the 10 sent, not the 6 finished.
void AttainmentCountsRejectedAndUnfinishedAsMisses() {
  slobench::SentCounts c;
  c.sent = 10;
  c.finished = 6;
  c.rejected = 2;
  c.attained = 4;
  Check(c.Unfinished() == 2, "two requests are unfinished");
  Check(Near(slobench::AttainmentOverSentPct(c), 40.0), "attainment is 4 of 10 sent");

  // Pooling episodes pools counts, not percentages.
  slobench::SentCounts other;
  other.sent = 30;
  other.finished = 30;
  other.attained = 30;
  c += other;
  Check(Near(slobench::AttainmentOverSentPct(c), 85.0), "pooled attainment is 34 of 40 sent");
}

// The margin is measured against the best baseline, not the first or the
// mean one.
void MarginUsesBestBaseline() {
  const std::vector<double> baselines = {40.0, 70.0, 55.0};
  Check(Near(slobench::BestBaseline(baselines), 70.0), "best baseline is the highest");
  Check(Near(slobench::MarginPts(60.0, baselines), -10.0), "margin is 60 - 70");
  Check(Near(slobench::RatioToBestPct(60.0, baselines), 100.0 * 60.0 / 70.0),
        "ratio is 60 / 70");
  Check(slobench::MarginPts(75.0, baselines) > 0.0, "beating every baseline is positive");
}

// Replays a hand-built tick sequence against an explicit queue of request
// ids and checks that the depth rebuilt from the counters alone equals the
// true queue length after every tick.
void QueueDepthMatchesTrueQueue() {
  struct Tick {
    int arrive;    // new arrivals joining the queue
    int admit;     // queue head admitted
    int evict;     // running requests evicted back to the queue
    int pause;     // running requests paused back to the queue
    int reject;    // queue head rejected
  };
  const std::vector<Tick> ticks = {
      {3, 2, 0, 0, 0},  // queue 1
      {0, 1, 1, 0, 0},  // evict one, admit one: queue 1
      {2, 1, 0, 1, 1},  // queue 2
      {4, 0, 0, 0, 0},  // queue 6
      {0, 5, 0, 0, 1},  // queue 0
  };
  std::deque<int> queue;
  std::vector<int> running;
  int next_id = 0;
  slobench::QueueDepth derived;
  double true_sum = 0.0;
  for (const Tick& t : ticks) {
    for (int i = 0; i < t.arrive; ++i) queue.push_back(next_id++);
    for (int i = 0; i < t.evict + t.pause; ++i) {
      queue.push_front(running.back());
      running.pop_back();
    }
    for (int i = 0; i < t.reject; ++i) queue.pop_front();
    for (int i = 0; i < t.admit; ++i) {
      running.push_back(queue.front());
      queue.pop_front();
    }
    derived.OnTick(t.arrive, t.admit, t.evict, t.pause, t.reject);
    true_sum += static_cast<double>(queue.size());
    Check(derived.depth() == static_cast<long>(queue.size()), "derived depth equals queue length");
  }
  Check(derived.depth() == 0, "the queue drains");
  Check(derived.ticks() == static_cast<long>(ticks.size()), "every tick is counted");
  Check(Near(derived.Mean(), true_sum / static_cast<double>(ticks.size())),
        "mean depth is the per-tick average");
}

void MedianOfOddAndEvenSamples() {
  Check(Near(slobench::Median({3.0, 1.0, 2.0}), 2.0), "odd median");
  Check(Near(slobench::Median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median");
}

}  // namespace

int main() {
  AttainmentCountsRejectedAndUnfinishedAsMisses();
  MarginUsesBestBaseline();
  QueueDepthMatchesTrueQueue();
  MedianOfOddAndEvenSamples();
  if (failures != 0) {
    std::fprintf(stderr, "%d arithmetic check(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  return EXIT_SUCCESS;
}
