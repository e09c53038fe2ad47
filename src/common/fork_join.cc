#include "src/common/fork_join.h"

#include <algorithm>
#include <chrono>
#include <exception>

namespace adaserve {
namespace {

// How long an idle helper polls for the next call before it parks. A
// serving tick's calls come tens of microseconds apart, so a helper catches
// the next one awake; between runs (or while something else owns the
// machine) it parks well inside a millisecond.
constexpr auto kSpinFor = std::chrono::microseconds(200);

// The team and member whose item the current thread is running, if any.
thread_local const ForkJoinTeam* t_team = nullptr;
thread_local int t_member = 0;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

// One call's loop. Lives on the caller's stack; helpers touch it only
// between taking active_ and dropping it, and the caller clears job_ and
// waits for active_ to drain before returning.
struct alignas(kFalseSharingBytes) ForkJoinTeam::Job {
  Invoke invoke = nullptr;
  const void* fn = nullptr;
  int n = 0;
  // Written only by the thread that wins the `failed` exchange; read by
  // the caller after every helper has left.
  std::exception_ptr error;
  std::atomic<bool> failed{false};
  // The next unclaimed index, on its own line: every claim writes it.
  alignas(kFalseSharingBytes) std::atomic<int> next{0};
};

ForkJoinTeam::ForkJoinTeam(int helpers) : helper_count_(std::max(helpers, 0)) {}

ForkJoinTeam::~ForkJoinTeam() {
  if (helpers_.empty()) {
    return;
  }
  stop_.store(true);
  epoch_.fetch_add(1);
  epoch_.notify_all();
  for (std::thread& helper : helpers_) {
    helper.join();
  }
}

ForkJoinTeam& ForkJoinTeam::Shared() {
  static ForkJoinTeam team(
      std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4) - 1);
  return team;
}

void ForkJoinTeam::Work(Job& job, int member) const {
  const ForkJoinTeam* const outer_team = t_team;
  const int outer_member = t_member;
  t_team = this;
  t_member = member;
  for (int i = job.next.fetch_add(1, std::memory_order_relaxed); i < job.n;
       i = job.next.fetch_add(1, std::memory_order_relaxed)) {
    try {
      job.invoke(job.fn, member, i);
    } catch (...) {
      if (!job.failed.exchange(true)) {
        job.error = std::current_exception();
      }
    }
  }
  t_team = outer_team;
  t_member = outer_member;
}

void ForkJoinTeam::Dispatch(int n, Invoke invoke, const void* fn) {
  Job job;
  job.invoke = invoke;
  job.fn = fn;
  job.n = n;
  // An item of another team with helpers already shares the machine with
  // that team's other members.
  const bool in_parallel_item = t_team != nullptr && t_team != this && t_team->helper_count_ > 0;
  bool idle = false;
  if (n < 2 || helper_count_ == 0 || in_parallel_item ||
      !busy_.compare_exchange_strong(idle, true, std::memory_order_acquire)) {
    // Inline: the caller is every member. A call nested in one of this
    // team's items (the team is busy with it) keeps that item's member.
    Work(job, t_team == this ? t_member : 0);
  } else {
    if (helpers_.empty()) {
      try {
        StartHelpers();
      } catch (...) {
        // A helper failed to start: free the team (it keeps whichever
        // helpers did start) and let the caller learn why.
        busy_.store(false, std::memory_order_release);
        throw;
      }
    }
    // Publish, then wake. Helpers parked or about to park are ordered
    // against this by the seq_cst pair (epoch_ bump, parked_ read) here
    // and (parked_ bump, epoch_ read in wait) there: one of the two sides
    // sees the other's write.
    job_.store(&job);
    epoch_.fetch_add(1);
    if (parked_.load() > 0) {
      epoch_.notify_all();
    }
    Work(job, 0);
    // Every index is claimed. Retract the job and wait out the helpers
    // still inside it: a helper that takes active_ after this store sees
    // no job (the same seq_cst pairing, on job_ and active_). A helper
    // preempted mid-item holds the caller up until it runs again, so
    // past a short spin the caller yields its core to it, and past about
    // a millisecond (a sweep's helpers finishing whole simulations) it
    // sleeps.
    job_.store(nullptr);
    for (int polls = 1; active_.load() != 0; ++polls) {
      if (polls < 256) {
        CpuRelax();
      } else if (polls < 4096) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(kSpinFor);
      }
    }
    busy_.store(false, std::memory_order_release);
  }
  if (job.failed.load(std::memory_order_acquire)) {
    std::rethrow_exception(job.error);
  }
}

void ForkJoinTeam::StartHelpers() {
  // A helper that first runs after later bumps (the shutdown's included)
  // must still see them, so it starts from the epoch before any.
  const uint32_t start = epoch_.load();
  helpers_.reserve(static_cast<size_t>(helper_count_));
  for (int member = 1; member <= helper_count_; ++member) {
    helpers_.emplace_back([this, member, start] { HelperLoop(member, start); });
  }
}

void ForkJoinTeam::HelperLoop(int member, uint32_t seen) {
  for (;;) {
    const auto spin_until = std::chrono::steady_clock::now() + kSpinFor;
    for (int polls = 1; epoch_.load(std::memory_order_acquire) == seen; ++polls) {
      if (polls % 64 == 0 && std::chrono::steady_clock::now() > spin_until) {
        parked_.fetch_add(1);
        epoch_.wait(seen);
        parked_.fetch_sub(1);
      }
      CpuRelax();
    }
    seen = epoch_.load();
    if (stop_.load()) {
      return;
    }
    active_.fetch_add(1);
    if (Job* job = job_.load()) {
      Work(*job, member);
    }
    active_.fetch_sub(1, std::memory_order_release);
  }
}

}  // namespace adaserve
