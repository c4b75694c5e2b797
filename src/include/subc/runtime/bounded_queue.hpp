// Bounded multi-producer/multi-consumer ring buffer (Vyukov's algorithm).
//
// Used by the parallel explorer to stream frontier work units from the
// walker to subtree workers instead of materializing the whole frontier up
// front, so workers start exploring while enumeration is still running.
//
// Each cell carries a sequence number that encodes both its occupancy and
// the "lap" of the ring it belongs to, so push and pop are single-CAS
// operations with no shared locks. Operations never block: `try_push`
// returns false on a full ring (the explorer's walker then runs a unit
// itself — natural backpressure), `try_pop` returns false on an empty one
// (workers then park on a condition variable owned by the caller).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace subc {

template <class T>
class BoundedQueue {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit BoundedQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) {
      cap <<= 1;
    }
    cells_ = std::make_unique<Cell[]>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueues by move; false when the ring is full.
  bool try_push(T&& v) {
    Cell* cell = nullptr;
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // full: the cell still holds an unpopped lap
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(v);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Dequeues into `out`; false when the ring is empty.
  bool try_pop(T& out) {
    Cell* cell = nullptr;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos + 1);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // empty: the cell is still waiting for this lap's push
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(cell->value);
    cell->value = T{};  // drop a payload that owns memory promptly
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Approximate occupancy: racy by nature (producers and consumers move
  /// the cursors concurrently), exact once traffic quiesces. The sharded
  /// service samples this for inbox-occupancy telemetry; never use it to
  /// decide emptiness — that is what try_pop's return value is for.
  [[nodiscard]] std::size_t approx_size() const noexcept {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    return head >= tail ? head - tail : 0;
  }

  /// The rounded-up power-of-two capacity.
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

}  // namespace subc
