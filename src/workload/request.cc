#include "src/workload/request.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/common/text.h"
#include "src/workload/categories.h"

namespace adaserve {

double Request::AvgTpot() const {
  ADASERVE_CHECK(state == RequestState::kFinished) << "AvgTpot on unfinished request " << id;
  const int decode_tokens = output_len() - 1;
  ADASERVE_CHECK(decode_tokens >= 1) << "request " << id << " produced too few tokens";
  return (finish_time - first_token_time) / decode_tokens;
}

bool Request::Attained() const {
  // A hair of tolerance absorbs floating-point accumulation over thousands
  // of iterations; it never flips a materially violating request.
  return AvgTpot() <= tpot_slo * (1.0 + 1e-9);
}

void Request::ReleasePayload() {
  ADASERVE_CHECK(state == RequestState::kFinished) << "payload release on live request " << id;
  std::vector<Token>().swap(output);
  std::vector<SimTime>().swap(token_times);
}

double Request::MeanAccepted() const {
  if (verifications == 0) {
    return 0.0;
  }
  return static_cast<double>(accepted_tokens) / static_cast<double>(verifications);
}

std::string ArrivalRowError(const Request& row, SimTime previous_arrival) {
  if (!std::isfinite(row.arrival) || row.arrival < 0.0) {
    return "bad arrival time " + FormatExact(row.arrival);
  }
  if (row.arrival < previous_arrival) {
    return "out-of-order arrival time " + FormatExact(row.arrival) +
           " (arrivals must be nondecreasing)";
  }
  if (row.prompt_len < 1) {
    return "bad prompt_len " + std::to_string(row.prompt_len);
  }
  if (row.target_output_len < 2) {
    return "bad target_output_len " + std::to_string(row.target_output_len);
  }
  if (row.category < 0 || row.category >= kNumCategories) {
    return "bad category " + std::to_string(row.category);
  }
  if (!std::isfinite(row.tpot_slo) || row.tpot_slo <= 0.0) {
    return "bad tpot_slo " + FormatExact(row.tpot_slo);
  }
  return "";
}

}  // namespace adaserve
