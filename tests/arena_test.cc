#include "src/common/arena.h"

#include <gtest/gtest.h>

#include <vector>

namespace adaserve {
namespace {

TEST(SmallVector, StaysInlineUpToCapacity) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 4; ++i) {
    v.push_back(i);
  }
  EXPECT_EQ(v.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(v[static_cast<size_t>(i)], i);
  }
}

TEST(SmallVector, SpillsPastInlineCapacityPreservingContents) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 100; ++i) {
    v.push_back(i);
  }
  EXPECT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(v[static_cast<size_t>(i)], i);
  }
  EXPECT_EQ(v.back(), 99);
}

TEST(SmallVector, ElementExactlyAtSpillBoundary) {
  SmallVector<int, 2> v;
  v.push_back(10);
  v.push_back(20);  // Fills the inline region.
  v.push_back(30);  // First spilled element.
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 20);
  EXPECT_EQ(v[2], 30);
}

TEST(SmallVector, ClearResetsAndIsReusableAcrossSpill) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 10; ++i) {
    v.push_back(i);
  }
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(7);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 7);
}

TEST(SmallVector, TruncateKeepsPrefixOnBothSidesOfTheBoundary) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 10; ++i) {
    v.push_back(i);
  }
  v.truncate(12);  // Longer than the vector: nothing changes.
  EXPECT_EQ(v.size(), 10u);
  v.truncate(6);  // Still spilled.
  ASSERT_EQ(v.size(), 6u);
  EXPECT_EQ(v[5], 5);
  v.truncate(3);  // Back inside the inline capacity.
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 0);
  EXPECT_EQ(v[2], 2);
  for (int i = 3; i < 8; ++i) {  // Spills again from the kept prefix.
    v.push_back(i);
  }
  ASSERT_EQ(v.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(v[static_cast<size_t>(i)], i);
  }
}

TEST(SmallVector, IterationMatchesIndexing) {
  SmallVector<int, 4> v;
  for (int i = 0; i < 9; ++i) {
    v.push_back(i * i);
  }
  int idx = 0;
  for (int x : v) {
    EXPECT_EQ(x, idx * idx);
    ++idx;
  }
  EXPECT_EQ(idx, 9);
}

TEST(SmallVector, CopyAndMoveBothSidesOfTheBoundary) {
  SmallVector<int, 4> small;
  small.push_back(1);
  small.push_back(2);
  SmallVector<int, 4> small_copy(small);
  EXPECT_EQ(small_copy.size(), 2u);
  EXPECT_EQ(small_copy[1], 2);

  SmallVector<int, 4> big;
  for (int i = 0; i < 8; ++i) {
    big.push_back(i);
  }
  SmallVector<int, 4> big_copy(big);
  EXPECT_EQ(big_copy.size(), 8u);
  EXPECT_EQ(big_copy[7], 7);

  SmallVector<int, 4> moved(std::move(big));
  EXPECT_EQ(moved.size(), 8u);
  EXPECT_EQ(moved[7], 7);
  EXPECT_TRUE(big.empty());  // NOLINT(bugprone-use-after-move): spec'd reset.
}

TEST(SmallVector, ConstAccessAfterSpill) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 5; ++i) {
    v.push_back(i + 10);
  }
  const SmallVector<int, 2>& cv = v;
  EXPECT_EQ(cv.front(), 10);
  EXPECT_EQ(cv.back(), 14);
  EXPECT_EQ(cv[2], 12);
  EXPECT_EQ(cv.end() - cv.begin(), 5);
}

TEST(VectorPool, AcquireWithoutReleaseAllocatesFresh) {
  VectorPool<int> pool;
  std::vector<int> v = pool.Acquire();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(pool.reuses(), 0u);
  EXPECT_EQ(pool.pooled(), 0u);
}

TEST(VectorPool, RecyclesCapacity) {
  VectorPool<int> pool;
  std::vector<int> v;
  v.reserve(128);
  v.push_back(1);
  pool.Release(std::move(v));
  EXPECT_EQ(pool.pooled(), 1u);

  std::vector<int> recycled = pool.Acquire();
  EXPECT_TRUE(recycled.empty());
  EXPECT_GE(recycled.capacity(), 128u);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.pooled(), 0u);
}

TEST(VectorPool, IgnoresCapacitylessReleases) {
  VectorPool<int> pool;
  pool.Release(std::vector<int>{});
  EXPECT_EQ(pool.pooled(), 0u);
}

}  // namespace
}  // namespace adaserve
