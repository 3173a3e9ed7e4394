#pragma once
// Power-of-two circular FIFO for hot-path wait queues.
//
// The fabric's wait queues (mesh link waiters, snoop-bus per-core request
// queues) used std::deque, whose chunk map allocates and frees as the FIFO
// walks memory — heap traffic on every sustained burst. FifoRing replaces
// that with one contiguous buffer and head/size arithmetic: steady state
// never allocates. Capacity is fixed at construction from the caller's
// worst-case bound (credits in flight, MSHR budget); if a burst the bound
// did not cover arrives anyway the ring grows by doubling — an amortized,
// high-water-only allocation, after which steady state is allocation-free
// again (the EventQueue slot pool follows the same philosophy).
//
// T must be default-constructible and movable (SmallFn-bearing records
// qualify). Elements are value-stored; pop_front() destroys by move-out on
// the caller's side: `T v = std::move(ring.front()); ring.pop_front();`.

#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "cdsim/common/assert.hpp"

namespace cdsim {

template <typename T>
class FifoRing {
 public:
  /// Rounds `min_capacity` up to a power of two (>= 2) and allocates once.
  explicit FifoRing(std::size_t min_capacity = 8)
      : buf_(std::bit_ceil(min_capacity < 2 ? std::size_t{2} : min_capacity)) {
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }

  void push_back(T v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(v);
    ++size_;
  }

  [[nodiscard]] T& front() {
    CDSIM_ASSERT(size_ > 0);
    return buf_[head_];
  }

  /// The i-th element from the front (0 = front()).
  [[nodiscard]] T& operator[](std::size_t i) {
    CDSIM_ASSERT(i < size_);
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  void pop_front() {
    CDSIM_ASSERT(size_ > 0);
    buf_[head_] = T{};  // drop captures/payload now, not at overwrite time
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    std::vector<T> bigger(buf_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace cdsim
