// Streaming-scale demonstration: serves a million-request bursty (MMPP)
// workload through the lazy arrival path and reports peak residency.
//
// The engine pulls requests from the generator on demand, retires finished
// requests incrementally, and skips the per-iteration log, so the resident
// request count stays bounded by tick.max_active + arrival_horizon
// (plus a short retirement tail) no matter how long the trace is — the run
// never materializes the trace. (Metrics retain two scalar samples per
// finished request for percentiles; that is the only per-request state.)
//
// Usage: bench_streaming_scale [num_requests]   (default 1,000,000)
#include <cstdlib>
#include <iostream>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

// Tiny fixed lengths: this bench stresses request volume and residency, not
// token throughput.
std::vector<CategorySpec> ScaleCategories(const Experiment& exp) {
  std::vector<CategorySpec> cats = exp.Categories();
  for (CategorySpec& cat : cats) {
    cat.prompt_len = LengthDist{.log_mean = 0.0, .log_stddev = 0.0, .min_len = 16, .max_len = 16};
    cat.output_len = LengthDist{.log_mean = 0.0, .log_stddev = 0.0, .min_len = 8, .max_len = 8};
  }
  return cats;
}

void Run(size_t num_requests) {
  const Experiment exp(GoldenSetup());

  MmppStreamConfig config;
  // Heavy ON/OFF bursts: quiet 50 rps baseline, 2000 rps bursts.
  config.mmpp.state_rps = {50.0, 2000.0};
  config.mmpp.mean_sojourn_s = {5.0, 2.0};
  config.duration = 1e12;  // effectively unbounded; the cap ends the stream
  config.trace_seed = 2024;
  config.max_requests = num_requests;
  auto stream = MakeMmppStream(ScaleCategories(exp), config);

  EngineConfig engine;
  engine.tick.max_active = 256;
  engine.arrival_horizon = 256;
  engine.retire_finished = true;
  engine.record_iterations = false;

  std::cout << "Streaming scale: " << num_requests
            << "-request MMPP bursty stream, lazy arrivals, retired finishes\n\n";
  VllmScheduler scheduler;
  const EngineResult result = exp.Run(scheduler, *stream, engine);

  // Queue <= active + horizon, active <= cap, plus a short-lived tail of
  // finished requests awaiting in-order retirement.
  const size_t residency_bound =
      static_cast<size_t>(engine.arrival_horizon + 4 * engine.tick.max_active);
  TablePrinter table({"metric", "value"});
  table.AddRow({"requests emitted", std::to_string(stream->emitted())});
  table.AddRow({"requests finished", std::to_string(result.metrics.finished)});
  table.AddRow({"iterations", std::to_string(result.total_iterations)});
  table.AddRow({"peak resident requests", std::to_string(result.peak_resident_requests)});
  table.AddRow({"residency bound checked", std::to_string(residency_bound)});
  table.AddRow({"makespan (s)", Fmt(result.metrics.makespan, 1)});
  table.AddRow({"throughput (tok/s)", Fmt(result.metrics.ThroughputTps(), 1)});
  table.AddRow({"slo attainment (%)", Fmt(result.metrics.AttainmentPct(), 2)});
  table.Print(std::cout);

  const bool bounded = result.peak_resident_requests <= residency_bound;
  std::cout << "\npeak residency " << (bounded ? "is" : "is NOT")
            << " O(active): " << result.peak_resident_requests << " resident vs "
            << num_requests << " total\n";
}

}  // namespace
}  // namespace adaserve

int main(int argc, char** argv) {
  size_t num_requests = 1'000'000;
  if (argc > 1) {
    num_requests = static_cast<size_t>(std::atoll(argv[1]));
  }
  adaserve::Run(num_requests);
  return 0;
}
