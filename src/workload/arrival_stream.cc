#include "src/workload/arrival_stream.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"

namespace adaserve {

MaterializedStream::MaterializedStream(std::vector<Request> requests)
    : requests_(std::move(requests)) {
  ADASERVE_CHECK(std::is_sorted(
      requests_.begin(), requests_.end(),
      [](const Request& a, const Request& b) { return a.arrival < b.arrival; }))
      << "requests must be sorted by arrival";
}

const Request* MaterializedStream::Peek() {
  return pos_ < requests_.size() ? &requests_[pos_] : nullptr;
}

Request MaterializedStream::Next() {
  ADASERVE_CHECK(pos_ < requests_.size()) << "Next() on exhausted stream";
  return requests_[pos_++];
}

WorkloadSource::WorkloadSource(std::unique_ptr<ArrivalStream> stream)
    : owned_(std::move(stream)), stream_(owned_.get()) {
  ADASERVE_CHECK(stream_ != nullptr) << "null arrival stream";
}

std::vector<Request> Materialize(ArrivalStream& stream, size_t max_requests) {
  std::vector<Request> requests;
  while (!stream.Exhausted() && requests.size() < max_requests) {
    requests.push_back(stream.Next());
  }
  return requests;
}

}  // namespace adaserve
