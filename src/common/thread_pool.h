// Fixed-size thread pool for the experiment harness.
//
// Deliberately small: a mutex-guarded FIFO queue drained by a fixed set of
// worker threads, no work stealing, futures for results. Exceptions thrown
// by a task are captured in its future (std::packaged_task semantics) and
// rethrow at future.get() in the caller, so a crashing sweep cell fails the
// bench instead of tearing down a worker. The harness fans out independent
// deterministic simulations, so this is all the machinery parallel sweeps
// need.
#ifndef ADASERVE_SRC_COMMON_THREAD_POOL_H_
#define ADASERVE_SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace adaserve {

class ThreadPool {
 public:
  // num_threads == 0 builds an inline pool: Submit runs the task on the
  // calling thread before returning (the future is already ready). Useful
  // as the exact-serial mode of parallel harnesses and in tests.
  explicit ThreadPool(int num_threads);

  // Joins after draining the queue: every task submitted before
  // destruction runs. Submitting from outside the pool while the
  // destructor runs is a caller bug.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  // True on a worker thread of any ThreadPool. Work running there shares
  // the machine with the pool's other workers, so it does not fan out
  // further (ForkJoinTeam runs such calls inline).
  static bool OnWorkerThread();

  // Enqueues `fn` and returns a future for its result. Tasks start in FIFO
  // order. Nested submission (a task submitting to its own pool) is safe;
  // blocking on a nested future from inside a worker can deadlock when
  // every worker does it, so harness code always waits from the caller.
  template <typename F>
  auto Submit(F fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> future = task->get_future();
    if (workers_.empty()) {
      (*task)();
      return future;
    }
    Enqueue([task] { (*task)(); });
    return future;
  }

 private:
  void Enqueue(std::function<void()> fn);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_COMMON_THREAD_POOL_H_
