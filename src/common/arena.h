// Allocation-recycling primitives for the serving hot path.
//
// Steady-state serving should not touch the heap. Two tools enforce
// that, in increasing order of scope:
//   - SmallVector<T, N>: bounded scratch (distribution supports,
//     token-tree children, per-phase id lists) lives in inline storage
//     and only spills to the heap past N elements.
//   - VectorPool<T>: recycles the capacity of per-request payload
//     vectors (output tokens, commit timestamps) from retired requests
//     to newly admitted ones, so a long streaming run reaches a fixed
//     point where no request ever allocates.
#ifndef ADASERVE_SRC_COMMON_ARENA_H_
#define ADASERVE_SRC_COMMON_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace adaserve {

// Fixed-inline-capacity vector for trivially copyable scratch data. The
// first N elements live inside the object; element N+1 moves the whole
// contents to a heap vector whose capacity is retained across clear().
// Iterators/pointers are invalidated by push_back, exactly like
// std::vector. Deliberately minimal: the hot paths need append, indexed
// read, span-style access and cutting to a prefix, nothing else.
template <typename T, size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector is scratch storage for trivially copyable types");
  static_assert(N > 0, "inline capacity must be positive");

 public:
  SmallVector() = default;
  SmallVector(SmallVector&& other) noexcept { *this = std::move(other); }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      size_ = other.size_;
      if (size_ > 0 && size_ <= N) {
        std::copy(other.inline_, other.inline_ + size_, inline_);
      }
      spill_ = std::move(other.spill_);
      other.size_ = 0;
      other.spill_.clear();
    }
    return *this;
  }
  SmallVector(const SmallVector& other) { *this = other; }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      size_ = other.size_;
      if (size_ > 0 && size_ <= N) {
        std::copy(other.inline_, other.inline_ + size_, inline_);
      }
      spill_ = other.spill_;
    }
    return *this;
  }

  void push_back(const T& v) {
    if (size_ < N) {
      inline_[size_++] = v;
      return;
    }
    if (size_ == N) {
      spill_.assign(inline_, inline_ + N);  // One-time copy at the spill point.
    }
    spill_.push_back(v);
    ++size_;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  const T& front() const { return data()[0]; }
  T& back() { return data()[size_ - 1]; }
  const T& back() const { return data()[size_ - 1]; }

  T* data() { return size_ <= N ? inline_ : spill_.data(); }
  const T* data() const { return size_ <= N ? inline_ : spill_.data(); }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  // Keeps the first `n` elements; a no-op unless n < size(). A cut back
  // inside the inline capacity moves the kept prefix inline again.
  void truncate(size_t n) {
    if (n >= size_) {
      return;
    }
    if (size_ > N && n <= N) {
      std::copy(spill_.begin(), spill_.begin() + static_cast<std::ptrdiff_t>(n), inline_);
      spill_.clear();
    } else if (size_ > N) {
      spill_.resize(n);
    }
    size_ = n;
  }

  // Drops the elements; spill capacity (if any) is kept for reuse.
  void clear() {
    size_ = 0;
    spill_.clear();
  }

 private:
  T inline_[N];
  size_t size_ = 0;
  std::vector<T> spill_;
};

// LIFO free list recycling heap vectors with their capacity. Acquire
// returns an empty vector (reusing the most recently released buffer's
// capacity when one is pooled); Release parks a no-longer-needed vector.
// Single-threaded by design — each RequestPool/engine run owns its own
// pool, mirroring the one-cell-one-task sweep contract.
template <typename T>
class VectorPool {
 public:
  std::vector<T> Acquire() {
    if (free_.empty()) {
      return {};
    }
    std::vector<T> v = std::move(free_.back());
    free_.pop_back();
    v.clear();
    ++reuses_;
    return v;
  }

  void Release(std::vector<T>&& v) {
    if (v.capacity() == 0) {
      return;  // Nothing worth recycling.
    }
    free_.push_back(std::move(v));
  }

  // Buffers currently parked.
  size_t pooled() const { return free_.size(); }
  // Acquire calls that reused pooled capacity instead of allocating.
  size_t reuses() const { return reuses_; }

 private:
  std::vector<std::vector<T>> free_;
  size_t reuses_ = 0;
};

}  // namespace adaserve

#endif  // ADASERVE_SRC_COMMON_ARENA_H_
