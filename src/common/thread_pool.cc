#include "src/common/thread_pool.h"

namespace adaserve {
namespace {

thread_local bool t_pool_worker = false;

}  // namespace

bool ThreadPool::OnWorkerThread() { return t_pool_worker; }

ThreadPool::ThreadPool(int num_threads) {
  workers_.reserve(static_cast<size_t>(num_threads > 0 ? num_threads : 0));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Enqueue(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  t_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ set and nothing left to drain
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // The packaged_task wrapper captures any exception into the future.
    task();
  }
}

}  // namespace adaserve
