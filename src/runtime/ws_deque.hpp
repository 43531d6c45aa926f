#pragma once

// Chase–Lev work-stealing deque.
//
// Memory ordering follows Lê, Pop, Cohen, Zappa Nardelli, "Correct and
// Efficient Work-Stealing for Weak Memory Models" (PPoPP'13), except that
// the owner publishes `bottom` with release stores instead of a release
// fence before relaxed stores: a thief's acquire load of `bottom` then
// synchronizes with the stores TSan can see (it does not model fences).
// The owner pushes/pops at the bottom; thieves steal from the top.
// Elements must be trivially copyable; they are stored as arrays of relaxed
// atomic words so that the racy slot reads the algorithm permits (a thief
// reading a slot the owner is about to overwrite, discarded when the top
// CAS fails) are data-race-free under the C++ memory model and clean under
// TSan. Values wider than one word can tear across words during such a
// race, but a torn read is only ever observed by a thief whose claiming CAS
// fails, so the torn value is discarded.
//
// Buffer growth retires old buffers instead of freeing them immediately: a
// thief holding a stale buffer pointer still reads valid slots for the
// indices it can observe. Retired buffers are reclaimed either at
// destruction or when the owner calls reclaim_retired() at a quiescent
// point (the thread pool does this when no thief is mid-steal, bounding
// retired growth over the pool's lifetime instead of deferring it all to
// teardown).

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "support/macros.hpp"

namespace triolet::runtime {

template <typename T>
class WsDeque {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit WsDeque(std::int64_t initial_capacity = 64)
      : top_(0), bottom_(0), buffer_(new Buffer(initial_capacity)) {}

  WsDeque(const WsDeque&) = delete;
  WsDeque& operator=(const WsDeque&) = delete;

  ~WsDeque() {
    delete buffer_.load(std::memory_order_relaxed);
    for (Buffer* b : retired_) delete b;
  }

  /// Owner only.
  void push(T item) {
    std::int64_t b = bottom_.load(std::memory_order_relaxed);
    std::int64_t t = top_.load(std::memory_order_acquire);
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    if (b - t > buf->capacity - 1) {
      buf = grow(buf, t, b);
    }
    buf->put(b, item);
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only. Returns false if the deque observed empty.
  bool pop(T& out) {
    std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    bool ok = false;
    if (t <= b) {
      out = buf->get(b);
      ok = true;
      if (t == b) {
        // Last element: race against thieves for it.
        if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          ok = false;
        }
        bottom_.store(b + 1, std::memory_order_release);
      }
    } else {
      bottom_.store(b + 1, std::memory_order_release);
    }
    return ok;
  }

  /// Any thread. Returns false if empty or if the steal lost a race.
  bool steal(T& out) {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t < b) {
      Buffer* buf = buffer_.load(std::memory_order_consume);
      T item = buf->get(t);
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        return false;  // lost the race; caller may retry elsewhere
      }
      out = item;
      return true;
    }
    return false;
  }

  /// Approximate size; only advisory (used for victim selection heuristics).
  std::int64_t size_approx() const {
    std::int64_t b = bottom_.load(std::memory_order_relaxed);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? b - t : 0;
  }

  /// Owner only, and only at a point where the owner has established that
  /// no thief is mid-steal on this deque (the pool gates this on its
  /// active-thief counter). Frees every retired buffer: a thief arriving
  /// later reloads buffer_, which has pointed at the current buffer since
  /// the grow that retired these.
  void reclaim_retired() {
    for (Buffer* b : retired_) delete b;
    retired_.clear();
    retired_count_.store(0, std::memory_order_relaxed);
  }

  /// Number of buffers retired by growth and not yet reclaimed. Any thread
  /// may read it (diagnostics); only the owner changes it.
  std::int64_t retired_count() const {
    return retired_count_.load(std::memory_order_relaxed);
  }

 private:
  // Slots are stored as arrays of relaxed atomic 64-bit words; put/get
  // memcpy through a word-aligned staging buffer. For word-sized T
  // (pointers, the common case) this compiles to a single relaxed
  // load/store, identical to std::atomic<T>.
  static constexpr std::int64_t kWords =
      static_cast<std::int64_t>((sizeof(T) + 7) / 8);

  struct Buffer {
    explicit Buffer(std::int64_t cap)
        : capacity(cap),
          mask(cap - 1),
          slots(new std::atomic<std::uint64_t>[static_cast<std::size_t>(
              cap * kWords)]) {
      TRIOLET_CHECK((cap & (cap - 1)) == 0, "deque capacity must be 2^k");
    }
    ~Buffer() { delete[] slots; }

    void put(std::int64_t i, const T& v) {
      std::uint64_t w[kWords] = {};
      std::memcpy(w, &v, sizeof(T));
      std::atomic<std::uint64_t>* s = slots + (i & mask) * kWords;
      for (std::int64_t k = 0; k < kWords; ++k) {
        s[k].store(w[k], std::memory_order_relaxed);
      }
    }
    T get(std::int64_t i) const {
      std::uint64_t w[kWords];
      const std::atomic<std::uint64_t>* s = slots + (i & mask) * kWords;
      for (std::int64_t k = 0; k < kWords; ++k) {
        w[k] = s[k].load(std::memory_order_relaxed);
      }
      T v;
      std::memcpy(&v, w, sizeof(T));
      return v;
    }

    const std::int64_t capacity;
    const std::int64_t mask;
    std::atomic<std::uint64_t>* const slots;
  };

  Buffer* grow(Buffer* old, std::int64_t t, std::int64_t b) {
    auto* bigger = new Buffer(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    buffer_.store(bigger, std::memory_order_release);
    retired_.push_back(old);  // owner-only structure
    retired_count_.store(static_cast<std::int64_t>(retired_.size()),
                         std::memory_order_relaxed);
    return bigger;
  }

  std::atomic<std::int64_t> top_;
  std::atomic<std::int64_t> bottom_;
  std::atomic<Buffer*> buffer_;
  std::vector<Buffer*> retired_;
  std::atomic<std::int64_t> retired_count_{0};  // == retired_.size()
};

}  // namespace triolet::runtime
