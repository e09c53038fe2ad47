// Unit tests for ForkJoinTeam: every index runs once, the inline cases run
// on the calling thread, a call from another team's item fans out only when
// that team has no helpers, concurrent items never share a member, calls
// made back to back never lose a helper's wake-up, and the destructor joins
// parked helpers. The TSan CI job runs these through the smoke label.
#include "src/common/fork_join.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

namespace adaserve {
namespace {

// Spins until `count` reaches `target` or a generous deadline passes;
// returns whether it got there.
bool AwaitCount(const std::atomic<int>& count, int target) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (count.load() < target) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

TEST(ForkJoinTeamTest, EveryIndexRunsOnceAndMatchesASerialLoop) {
  ForkJoinTeam team(3);
  for (int n : {2, 3, 7, 64, 1000}) {
    std::vector<long> serial(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      serial[static_cast<size_t>(i)] = 31L * i * i + 7;
    }
    std::vector<long> out(static_cast<size_t>(n), 0);
    std::vector<std::atomic<int>> runs(static_cast<size_t>(n));
    team.Run(n, [&](int member, int i) {
      ASSERT_GE(member, 0);
      ASSERT_LT(member, team.members());
      runs[static_cast<size_t>(i)].fetch_add(1);
      out[static_cast<size_t>(i)] = 31L * i * i + 7;
    });
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(runs[static_cast<size_t>(i)].load(), 1) << "index " << i << " of " << n;
    }
    EXPECT_EQ(out, serial) << "n = " << n;
  }
}

TEST(ForkJoinTeamTest, HelpersTakeItemsAndConcurrentItemsNeverShareAMember) {
  // Each item waits until every member holds one, so the call finishes
  // only if the helpers take items alongside the caller.
  ForkJoinTeam team(3);
  const int members = team.members();
  std::atomic<int> started{0};
  std::vector<std::atomic<int>> holding(static_cast<size_t>(members));
  std::vector<std::thread::id> threads(static_cast<size_t>(members));
  team.Run(members, [&](int member, int i) {
    EXPECT_EQ(holding[static_cast<size_t>(member)].fetch_add(1), 0) << "member " << member;
    threads[static_cast<size_t>(i)] = std::this_thread::get_id();
    started.fetch_add(1);
    EXPECT_TRUE(AwaitCount(started, members)) << "helpers never took their items";
    holding[static_cast<size_t>(member)].fetch_sub(1);
  });
  for (size_t a = 0; a < threads.size(); ++a) {
    for (size_t b = a + 1; b < threads.size(); ++b) {
      EXPECT_NE(threads[a], threads[b]);
    }
  }
}

TEST(ForkJoinTeamTest, SizesZeroAndOneRunInline) {
  ForkJoinTeam team(3);
  int calls = 0;
  team.Run(0, [&](int, int) { ++calls; });
  EXPECT_EQ(calls, 0);
  int member = -1;
  std::thread::id thread;
  team.Run(1, [&](int m, int i) {
    EXPECT_EQ(i, 0);
    member = m;
    thread = std::this_thread::get_id();
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(member, 0);
  EXPECT_EQ(thread, std::this_thread::get_id());
}

TEST(ForkJoinTeamTest, ATeamWithoutHelpersRunsInlineInIndexOrder) {
  ForkJoinTeam team(0);
  EXPECT_EQ(team.members(), 1);
  std::vector<int> order;
  team.Run(5, [&](int member, int i) {
    EXPECT_EQ(member, 0);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ForkJoinTeamTest, ANestedCallRunsInlineOnTheItemsThread) {
  ForkJoinTeam team(3);
  constexpr int kOuter = 8;
  constexpr int kInner = 16;
  std::vector<std::atomic<int>> inner_runs(kOuter * kInner);
  std::atomic<int> mismatches{0};
  team.Run(kOuter, [&](int outer_member, int o) {
    const std::thread::id outer_thread = std::this_thread::get_id();
    team.Run(kInner, [&](int member, int i) {
      if (std::this_thread::get_id() != outer_thread || member != outer_member) {
        mismatches.fetch_add(1);
      }
      inner_runs[static_cast<size_t>(o * kInner + i)].fetch_add(1);
    });
  });
  EXPECT_EQ(mismatches.load(), 0);
  for (const std::atomic<int>& runs : inner_runs) {
    EXPECT_EQ(runs.load(), 1);
  }
}

TEST(ForkJoinTeamTest, ACallFromAnItemOfAnotherTeamWithHelpersRunsInline) {
  // The outer team is a two-cell sweep: each cell already has a core.
  ForkJoinTeam sweep(1);
  ForkJoinTeam team(3);
  std::atomic<int> strays{0};
  sweep.Run(2, [&](int, int) {
    const std::thread::id self = std::this_thread::get_id();
    // Items long enough that awake helpers would take some.
    team.Run(32, [&](int member, int) {
      if (std::this_thread::get_id() != self || member != 0) {
        strays.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
  });
  EXPECT_EQ(strays.load(), 0);
}

TEST(ForkJoinTeamTest, ACallFromAnItemOfATeamWithoutHelpersUsesTheHelpers) {
  // A one-member sweep leaves the cores free, so its cells fan out: each
  // inner item waits until every inner member holds one, which finishes
  // only if the inner team's helpers take items alongside the cell.
  ForkJoinTeam sweep(0);
  ForkJoinTeam team(3);
  const int members = team.members();
  sweep.Run(2, [&](int, int) {
    std::atomic<int> started{0};
    team.Run(members, [&](int, int) {
      started.fetch_add(1);
      EXPECT_TRUE(AwaitCount(started, members)) << "helpers never took their items";
    });
  });
}

TEST(ForkJoinTeamTest, TenThousandBackToBackCallsFinish) {
  // Alternating tiny and idle gaps between calls moves the helpers
  // between spinning and parking; a lost wake-up hangs here.
  ForkJoinTeam team(3);
  long total = 0;
  for (int call = 0; call < 10000; ++call) {
    const int n = 2 + call % 7;
    std::atomic<long> sum{0};
    team.Run(n, [&](int, int i) { sum.fetch_add(i + 1); });
    total += sum.load();
    ASSERT_EQ(sum.load(), static_cast<long>(n) * (n + 1) / 2) << "call " << call;
    if (call % 2000 == 1999) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_GT(total, 0);
}

TEST(ForkJoinTeamTest, TheDestructorJoinsParkedHelpers) {
  for (int rep = 0; rep < 3; ++rep) {
    ForkJoinTeam team(3);
    std::atomic<int> runs{0};
    team.Run(16, [&](int, int) { runs.fetch_add(1); });
    EXPECT_EQ(runs.load(), 16);
    // Well past the helpers' spin: they are parked when the team dies.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

TEST(ForkJoinTeamTest, AnItemsExceptionReachesTheCallerAfterEveryItemRan) {
  ForkJoinTeam team(3);
  std::atomic<int> runs{0};
  EXPECT_THROW(team.Run(32,
                        [&](int, int i) {
                          runs.fetch_add(1);
                          if (i == 5) {
                            throw std::runtime_error("item failed");
                          }
                        }),
               std::runtime_error);
  EXPECT_EQ(runs.load(), 32);
  // The team serves the next call.
  std::atomic<int> after{0};
  team.Run(8, [&](int, int) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(ForkJoinTeamTest, TheSharedTeamHasAtMostFourMembers) {
  const int members = ForkJoinTeam::Shared().members();
  EXPECT_GE(members, 1);
  EXPECT_LE(members, 4);
}

}  // namespace
}  // namespace adaserve
