// Pull-based arrival streams: the lazy interface between workload
// generation and the serving engine.
//
// A stream yields requests one at a time in nondecreasing arrival order
// with dense sequential ids. The engine consumes streams incrementally
// (peek the next arrival time, pull when due), so a generator-backed
// stream never materializes its trace: a million-request run holds only
// the active requests plus a small admission horizon in memory.
// MaterializedStream adapts a request vector (replayed arrivals, cluster
// partitions, hand-built test workloads) to the same interface.
#ifndef ADASERVE_SRC_WORKLOAD_ARRIVAL_STREAM_H_
#define ADASERVE_SRC_WORKLOAD_ARRIVAL_STREAM_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "src/workload/request.h"

namespace adaserve {

class ArrivalStream {
 public:
  virtual ~ArrivalStream() = default;

  // True when no requests remain.
  virtual bool Exhausted() = 0;

  // The next request without consuming it; nullptr when exhausted. The
  // pointer is invalidated by the next call to Next().
  virtual const Request* Peek() = 0;

  // Consumes and returns the next request. Undefined when exhausted.
  virtual Request Next() = 0;

  // Requests consumed via Next() so far.
  virtual size_t emitted() const = 0;
};

// Adapts a pre-built, arrival-sorted request vector to the stream
// interface.
class MaterializedStream final : public ArrivalStream {
 public:
  // `requests` must be sorted by arrival time.
  explicit MaterializedStream(std::vector<Request> requests);

  bool Exhausted() override { return pos_ >= requests_.size(); }
  const Request* Peek() override;
  Request Next() override;
  size_t emitted() const override { return pos_; }

  size_t size() const { return requests_.size(); }

 private:
  std::vector<Request> requests_;
  size_t pos_ = 0;
};

// A workload handed to an engine/experiment Run: an owned or borrowed
// ArrivalStream. An owned request vector is adapted via
// MaterializedStream. The implicit conversions let every call site pass
// whichever form it holds to the one WorkloadSource signature.
class WorkloadSource {
 public:
  // Owned trace: `requests` must be sorted by arrival time.
  WorkloadSource(std::vector<Request> requests)  // NOLINT(google-explicit-constructor)
      : owned_(std::make_unique<MaterializedStream>(std::move(requests))),
        stream_(owned_.get()) {}

  // Owned live stream (a factory's fresh, single-pass stream); non-null.
  WorkloadSource(std::unique_ptr<ArrivalStream> stream);  // NOLINT(google-explicit-constructor)

  // Borrowed live stream; must outlive the Run call.
  WorkloadSource(ArrivalStream& stream)  // NOLINT(google-explicit-constructor)
      : stream_(&stream) {}

  ArrivalStream& stream() const { return *stream_; }

 private:
  std::unique_ptr<ArrivalStream> owned_;
  ArrivalStream* stream_;
};

// Drains up to `max_requests` requests into a vector, for callers that
// need the whole trace at once: Experiment::RealTraceWorkload, and tests
// that inspect or edit requests.
std::vector<Request> Materialize(ArrivalStream& stream,
                                 size_t max_requests = static_cast<size_t>(-1));

}  // namespace adaserve

#endif  // ADASERVE_SRC_WORKLOAD_ARRIVAL_STREAM_H_
