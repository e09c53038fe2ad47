// Coding-copilot burst: adaptive control in action.
//
// A steady chat workload is hit by a burst of latency-critical copilot
// requests mid-trace. The example prints a timeline of AdaServe's adaptive
// speculation parameters (d, w) and per-interval acceptance, showing the
// controller throttling speculation while the burst inflates the batch and
// re-expanding afterwards (§5.2).
#include <iostream>

#include "src/adaserve.h"

namespace {

using namespace adaserve;

constexpr double kBucket = 5.0;

struct Interval {
  double time_sum = 0.0;
  int iterations = 0;
  long committed = 0;
  long verified = 0;
  int batch_sum = 0;
};

// Timeline: buckets tick records into kBucket-second intervals by each
// tick's start on the engine clock, as the run goes.
class TimelineSink final : public TickTraceSink {
 public:
  void OnArrival(const Request&) override {}
  void OnTick(const TickTraceEvent& event) override {
    const size_t bucket = static_cast<size_t>(event.start / kBucket);
    if (bucket >= timeline_.size()) {
      timeline_.resize(bucket + 1);
    }
    Interval& iv = timeline_[bucket];
    const IterationRecord& rec = event.record;
    iv.time_sum += rec.duration;
    ++iv.iterations;
    iv.committed += rec.committed_tokens;
    iv.verified += rec.verified_tokens;
    iv.batch_sum += rec.decode_requests;
  }
  const std::vector<Interval>& timeline() const { return timeline_; }

 private:
  std::vector<Interval> timeline_;
};

}  // namespace

int main() {
  Experiment exp(LlamaSetup());

  // Background chat at 1.5 req/s for 60 s + a copilot burst peaking at 30 s.
  std::array<BurstSpec, kNumCategories> bursts = {{
      {.base_rps = 0.0, .peak_rps = 9.0, .peak_phase = 0.5, .peak_width = 0.06},  // coding burst
      {.base_rps = 1.5, .peak_rps = 1.5, .peak_phase = 0.5, .peak_width = 0.2},    // steady chat
      {.base_rps = 0.0, .peak_rps = 0.0, .peak_phase = 0.5, .peak_width = 0.2},    // no summarization
  }};
  const double duration = 60.0;
  const std::vector<Request> workload =
      BuildBurstyWorkload(exp.Categories(), bursts, duration, /*seed=*/17);
  std::cout << "Copilot burst scenario: " << workload.size()
            << " requests; copilot burst peaks at t=30 s\n\n";

  TimelineSink sink;
  EngineConfig engine;
  engine.trace_sink = &sink;
  AdaServeScheduler scheduler;
  const EngineResult result = exp.Run(scheduler, workload, engine);
  const std::vector<Interval>& timeline = sink.timeline();

  TablePrinter table({"t(s)", "iters", "avg batch", "avg iter(ms)", "tok/s committed",
                      "spec tokens/iter"});
  for (size_t i = 0; i < timeline.size(); ++i) {
    const Interval& iv = timeline[i];
    if (iv.iterations == 0) {
      continue;
    }
    table.AddRow({Fmt(i * kBucket, 0), std::to_string(iv.iterations),
                  Fmt(static_cast<double>(iv.batch_sum) / iv.iterations, 1),
                  Fmt(1e3 * iv.time_sum / iv.iterations, 1),
                  Fmt(iv.committed / std::max(iv.time_sum, 1e-9), 0),
                  Fmt(static_cast<double>(iv.verified) / iv.iterations, 1)});
  }
  table.Print(std::cout);

  std::cout << "\nCopilot (Cat1) attainment: "
            << FmtPct(result.metrics.per_category[kCatCoding].AttainmentPct())
            << " %   chat (Cat2): "
            << FmtPct(result.metrics.per_category[kCatChat].AttainmentPct())
            << " %   last (d, w) = (" << scheduler.last_beam().depth << ", "
            << scheduler.last_beam().width << ")\n";
  return 0;
}
