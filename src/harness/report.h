// Machine-readable experiment output: CSV writers for per-request records
// and the per-tick breakdown, so runs can be post-processed/plotted
// outside the binaries. Times are written with FormatExact (text.h), so
// every field parses back to the exact double.
#ifndef ADASERVE_SRC_HARNESS_REPORT_H_
#define ADASERVE_SRC_HARNESS_REPORT_H_

#include <ostream>
#include <span>

#include "src/serve/engine.h"

namespace adaserve {

// One row per finished request: ids, category, lengths, timestamps, TPOT,
// attainment, speculation counters.
void WriteRequestCsv(std::ostream& os, std::span<const Request> requests);

// Streams one row per progressing engine tick — duration plus breakdown —
// as the run goes. Writes the header on construction; attach it as the
// run's EngineConfig::trace_sink.
class IterationCsvSink final : public TickTraceSink {
 public:
  explicit IterationCsvSink(std::ostream& os);

  void OnArrival(const Request&) override {}
  void OnTick(const TickTraceEvent& event) override;

  // Tick rows written so far.
  long rows() const { return rows_; }

 private:
  std::ostream& os_;
  long rows_ = 0;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_HARNESS_REPORT_H_
