// Fork-join team for loops of independent items.
//
// A call hands the loop to the team's helper threads and the calling
// thread works as one more member: whoever is free claims the next index,
// so the caller only ever waits for items already in progress. The same
// primitive serves two grains: a serving tick's draft trees (tens of
// microseconds of work, on the process-wide Shared() team) and a sweep's
// whole simulations (SweepRunner builds a team per Map call). Helpers spin
// briefly between calls, then park on an atomic wait, so a caller that
// stops calling leaves no core busy for long.
//
// A call runs inline on the calling thread, in index order, when the loop
// has fewer than two items, when the team is already running a call (from
// another thread, or a nested call from one of its items), or when the
// caller is running an item of another team that has helpers: that team
// already spreads its items over the cores, so a cell of a parallel sweep
// builds its trees inline. The inline path runs the same callable; results
// differ only in which thread computed which item.
#ifndef ADASERVE_SRC_COMMON_FORK_JOIN_H_
#define ADASERVE_SRC_COMMON_FORK_JOIN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace adaserve {

// Per-member and per-item state written from different threads is padded
// apart by this much: a cache line plus its adjacent-line prefetch pair.
inline constexpr size_t kFalseSharingBytes = 128;

// A `T` alone on its cache lines.
template <typename T>
struct alignas(kFalseSharingBytes) CacheAligned {
  T value;
};

class ForkJoinTeam {
 public:
  // A team of `helpers` helper threads (0: every call runs inline). The
  // helpers start on the first call that uses them.
  explicit ForkJoinTeam(int helpers);

  // Stops and joins the helpers, parked or spinning. No call may be
  // running.
  ~ForkJoinTeam();

  ForkJoinTeam(const ForkJoinTeam&) = delete;
  ForkJoinTeam& operator=(const ForkJoinTeam&) = delete;

  // The process-wide team: min(hardware threads, 4) - 1 helpers. Nothing
  // starts until a serving thread's first parallel call.
  static ForkJoinTeam& Shared();

  // Members a call can use: the helpers plus the calling thread.
  int members() const { return helper_count_ + 1; }

  // Calls fn(member, index) once for every index in [0, n) and returns when
  // all have returned. `member` is in [0, members()): items that run at the
  // same time get different members, so per-member scratch indexed by it
  // is never shared. The calling thread is member 0, except that a call
  // nested in one of this team's items runs inline as that item's member.
  // The first exception an item throws is rethrown here once every item
  // has run.
  template <typename F>
  void Run(int n, const F& fn) {
    Dispatch(n, [](const void* f, int member, int index) {
      (*static_cast<const F*>(f))(member, index);
    }, &fn);
  }

 private:
  using Invoke = void (*)(const void* fn, int member, int index);
  struct Job;

  void Dispatch(int n, Invoke invoke, const void* fn);
  void StartHelpers();
  void HelperLoop(int member, uint32_t seen);
  void Work(Job& job, int member) const;

  // Held by the call in progress; a caller that fails to take it runs
  // inline.
  alignas(kFalseSharingBytes) std::atomic<bool> busy_{false};
  // Bumped once per call (and once at shutdown) to wake the helpers. The
  // call's job, null between calls, sits on the same line: both are
  // written only by the caller and read by the helpers right after.
  alignas(kFalseSharingBytes) std::atomic<uint32_t> epoch_{0};
  std::atomic<Job*> job_{nullptr};
  std::atomic<bool> stop_{false};
  // Helpers inside a job; the caller waits for zero before returning.
  alignas(kFalseSharingBytes) std::atomic<int> active_{0};
  // Helpers blocked in epoch_.wait; a call notifies only when nonzero.
  alignas(kFalseSharingBytes) std::atomic<int> parked_{0};
  const int helper_count_;
  // Empty until the first call that uses the team.
  std::vector<std::thread> helpers_;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_COMMON_FORK_JOIN_H_
