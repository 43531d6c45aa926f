#pragma once

// Per-rank asynchronous progress engine.
//
// `Comm::isend` returns immediately: the serialization, checksum, and
// transport delivery of the message run on this engine's thread, overlapping
// with the caller's computation (the MPI progress-thread model). Operations
// posted by one rank execute in FIFO order, so two isends to the same
// (dst, tag) are delivered in posting order and a blocking send that
// flushes the engine first can never overtake an earlier isend.
//
// Error model: an operation that throws (e.g. BufferOverflow on a bounded
// buffer) completes its handle with the exception; `PendingSend::wait` and
// `test` rethrow it. Dropping a failed `PendingSend` unobserved, before or
// after its operation completes, defers the error: the engine keeps the
// first deferred error and `flush()` rethrows it, and Cluster::run flushes
// every rank's engine when its body returns. An error that wait()/test()
// rethrew is the holder's and is not deferred. When the cluster aborts,
// queued operations are cancelled: they complete with ClusterAborted
// instead of executing.

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace triolet::net {

/// The first error of an operation nobody observed, kept for the next
/// flush. Shared by an engine and its ops' states, so a handle released
/// after its engine is gone still has somewhere to put its error.
class DeferredError {
 public:
  void keep(std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_) first_ = std::move(e);
  }

  std::exception_ptr take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(first_, nullptr);
  }

 private:
  std::mutex mu_;
  std::exception_ptr first_;
};

/// Completion state shared by a pending handle and the progress engine.
/// Completion is published through an atomic flag so waiters can spin
/// briefly (in-process ops usually finish in microseconds — cheaper than a
/// park/wake round trip through the cv) and testers never take the lock on
/// the not-done path; the mutex/cv pair only backs the parked slow path
/// and makes the error pointer visible.
struct AsyncOpState {
  /// Bits of `fate`. The engine sets kFailed after a failed completion and
  /// the handle sets kReleased when it is dropped; whichever comes second
  /// defers the error unless wait()/test() set kObserved by rethrowing it,
  /// so an unobserved error is deferred exactly once.
  enum : unsigned { kFailed = 1, kReleased = 2, kObserved = 4 };

  explicit AsyncOpState(std::shared_ptr<DeferredError> deferred)
      : deferred(std::move(deferred)) {}

  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> done{false};
  std::exception_ptr error;
  std::atomic<unsigned> fate{0};
  std::shared_ptr<DeferredError> deferred;

  void complete(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(mu);
      error = std::move(e);
      done.store(true, std::memory_order_release);
    }
    cv.notify_all();
  }

  /// Sets `bit` (kFailed or kReleased); the second of the two to arrive
  /// defers an error nobody observed. The acq_rel fetch_or orders the first
  /// party's writes (`error`, or the holder's kObserved) before the second
  /// party's reads.
  void settle(unsigned bit) {
    const unsigned before = fate.fetch_or(bit, std::memory_order_acq_rel);
    const unsigned other = (kFailed | kReleased) & ~bit;
    if ((before & other) && !(before & kObserved)) deferred->keep(error);
  }

  /// Blocks until the operation completes; rethrows its error.
  void wait() {
    for (int i = 0; i < 256; ++i) {
      if (done.load(std::memory_order_acquire)) break;
      if (i >= 32) std::this_thread::yield();
    }
    if (!done.load(std::memory_order_acquire)) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done.load(std::memory_order_acquire); });
    }
    // The release store under the lock ordered `error` before `done`, so
    // the acquire load above makes it safe to read here without the lock.
    rethrow_observed();
  }

  /// True once complete; rethrows the operation's error.
  bool test() {
    if (!done.load(std::memory_order_acquire)) return false;
    rethrow_observed();
    return true;
  }

 private:
  void rethrow_observed() {
    if (!error) return;
    fate.fetch_or(kObserved, std::memory_order_acq_rel);
    std::rethrow_exception(error);
  }
};

/// Waitable handle for one asynchronous send. The payload (or the value an
/// isend serializes) is owned by the engine until completion, so the caller
/// may reuse its own buffers immediately; a *borrowed* zero-copy segment,
/// however, references the engine-owned value, never caller memory.
class PendingSend {
 public:
  PendingSend() = default;
  PendingSend(PendingSend&& o) noexcept = default;
  PendingSend& operator=(PendingSend&& o) noexcept {
    if (this != &o) {
      release();
      state_ = std::move(o.state_);
    }
    return *this;
  }
  PendingSend(const PendingSend&) = delete;
  PendingSend& operator=(const PendingSend&) = delete;
  ~PendingSend() { release(); }

  bool valid() const { return state_ != nullptr; }

  /// Blocks until the message is delivered; rethrows delivery errors.
  void wait() {
    if (state_) state_->wait();
  }

  /// Non-blocking completion probe; rethrows delivery errors.
  bool test() { return state_ ? state_->test() : true; }

 private:
  friend class Comm;
  explicit PendingSend(std::shared_ptr<AsyncOpState> s)
      : state_(std::move(s)) {}

  void release() {
    if (state_) std::exchange(state_, nullptr)->settle(AsyncOpState::kReleased);
  }

  std::shared_ptr<AsyncOpState> state_;
};

/// Waits for every send in `sends` (rethrows the first error encountered).
template <typename Sends>
void wait_all_sends(Sends& sends) {
  for (auto& s : sends) s.wait();
}

class ProgressEngine {
 public:
  /// `aborted` is the cluster's abort flag: queued operations observed
  /// after it rises are cancelled with ClusterAborted.
  explicit ProgressEngine(const std::atomic<bool>* aborted);
  ~ProgressEngine();

  ProgressEngine(const ProgressEngine&) = delete;
  ProgressEngine& operator=(const ProgressEngine&) = delete;

  /// Enqueues `op` for FIFO execution on the engine thread.
  std::shared_ptr<AsyncOpState> post(std::function<void()> op);

  /// Blocks until every posted operation has completed, then rethrows (and
  /// clears) the first deferred error: from an operation whose handle was
  /// dropped without wait()/test() rethrowing its error.
  void flush();

 private:
  void loop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // wakes the engine thread
  std::condition_variable drain_cv_;  // wakes flush() waiters
  std::deque<std::pair<std::function<void()>, std::shared_ptr<AsyncOpState>>>
      queue_;
  std::size_t in_flight_ = 0;  // queued + currently executing
  bool stop_ = false;
  const std::shared_ptr<DeferredError> deferred_ =
      std::make_shared<DeferredError>();
  const std::atomic<bool>* aborted_;
  std::thread thread_;  // last member: started after all state exists
};

}  // namespace triolet::net
