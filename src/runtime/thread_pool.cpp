#include "runtime/thread_pool.hpp"

#include <chrono>
#include <cstdlib>

#include "support/rng.hpp"

namespace triolet::runtime {

namespace {

// Which pool the current thread works for, and its index there.
thread_local ThreadPool* tl_pool = nullptr;
thread_local int tl_worker = -1;

int env_threads() {
  if (const char* s = std::getenv("TRIOLET_THREADS")) {
    int n = std::atoi(s);
    if (n >= 1) return n;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int env_spin_us() {
  if (const char* s = std::getenv("TRIOLET_SPIN_US")) {
    int n = std::atoi(s);
    if (n >= 0) return n;
  }
  return 50;
}

// Brief pause inside spin loops; yields the core on oversubscribed hosts.
inline void cpu_relax(int round) {
  if (round < 4) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  } else {
    std::this_thread::yield();
  }
}

}  // namespace

TaskGroup::~TaskGroup() {
  TRIOLET_CHECK(pending_.load() == 0,
                "TaskGroup destroyed with tasks still pending");
}

ThreadPool::ThreadPool(int nthreads) {
  TRIOLET_CHECK(nthreads >= 1, "thread pool needs at least one worker");
  spin_us_ = env_spin_us();
  workers_.reserve(static_cast<std::size_t>(nthreads));
  for (int i = 0; i < nthreads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(static_cast<std::size_t>(nthreads));
  for (int i = 0; i < nthreads; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_seq_cst);
  // Wake everyone for shutdown (the one broadcast left in the pool).
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mu);
    w->notified = true;
    w->cv.notify_all();
  }
  for (auto& t : threads_) t.join();
  // TaskGroup's destructor forbids outliving its tasks, so in a well-formed
  // program the queues are empty here; leftover boxed callables from an
  // already-diagnosed misuse are dropped, not run.
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(env_threads());
  return pool;
}

int ThreadPool::current_worker() { return tl_worker; }

ThreadPool* ThreadPool::current() { return tl_pool; }

void ThreadPool::submit_slot(const TaskSlot& slot) {
  slot.group->pending_.fetch_add(1, std::memory_order_acq_rel);
  if (tl_pool == this && tl_worker >= 0) {
    workers_[static_cast<std::size_t>(tl_worker)]->deque.push(slot);
  } else {
    {
      std::lock_guard<std::mutex> lock(inject_mu_);
      injected_.push_back(slot);
    }
    injected_size_.fetch_add(1, std::memory_order_release);
    n_injected_.fetch_add(1, std::memory_order_relaxed);
  }
  // Dekker handshake with parking workers: the work-publishing store above
  // must be ordered before the parked-mask load in wake_one (a parking
  // worker mirrors this with mask-store then queue-scan).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  wake_one();
}

void ThreadPool::wake_one() {
  std::uint64_t mask = parked_mask_.load(std::memory_order_seq_cst);
  while (mask != 0) {
    const int idx = __builtin_ctzll(mask);
    const std::uint64_t bit = 1ull << idx;
    if (parked_mask_.compare_exchange_weak(mask, mask & ~bit,
                                           std::memory_order_seq_cst)) {
      Worker& w = *workers_[static_cast<std::size_t>(idx)];
      {
        std::lock_guard<std::mutex> lock(w.mu);
        w.notified = true;
      }
      w.cv.notify_one();
      n_wakes_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // CAS failure reloaded `mask`; retry with the fresh value.
  }
}

bool ThreadPool::work_visible() const {
  if (injected_size_.load(std::memory_order_acquire) > 0) return true;
  for (const auto& w : workers_) {
    if (w->deque.size_approx() > 0) return true;
  }
  return false;
}

bool ThreadPool::try_acquire_injected(TaskSlot& out) {
  if (injected_size_.load(std::memory_order_acquire) <= 0) return false;
  std::lock_guard<std::mutex> lock(inject_mu_);
  if (injected_.empty()) return false;
  out = injected_.front();
  injected_.pop_front();
  injected_size_.fetch_sub(1, std::memory_order_release);
  return true;
}

bool ThreadPool::try_acquire(int self, TaskSlot& out) {
  // 1. Own deque (workers only).
  if (self >= 0 &&
      workers_[static_cast<std::size_t>(self)]->deque.pop(out)) {
    return true;
  }
  // 2. Injection queue.
  if (try_acquire_injected(out)) return true;
  // 3. Steal. Start at a per-thread pseudo-random victim for fairness.
  static thread_local Xoshiro256 rng(
      0x9e3779b97f4a7c15ull ^
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const int n = size();
  n_steal_attempts_.fetch_add(1, std::memory_order_relaxed);
  thieves_.fetch_add(1, std::memory_order_seq_cst);
  bool got = false;
  int start = static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  for (int k = 0; k < n; ++k) {
    int v = (start + k) % n;
    if (v == self) continue;
    if (workers_[static_cast<std::size_t>(v)]->deque.steal(out)) {
      n_stolen_.fetch_add(1, std::memory_order_relaxed);
      got = true;
      break;
    }
  }
  thieves_.fetch_sub(1, std::memory_order_seq_cst);
  return got;
}

void ThreadPool::run_slot(TaskSlot& slot) {
  TaskGroup* g = slot.group;
  slot.invoke(slot.storage, *this, *g);
  // The final decrement is the last touch of the group: a waiter observing
  // pending == 0 may destroy the TaskGroup immediately, so nothing (no
  // lock, no cv) may be accessed after this.
  g->pending_.fetch_sub(1, std::memory_order_acq_rel);
}

bool ThreadPool::try_run_one() {
  TaskSlot slot;
  if (!try_acquire(tl_pool == this ? tl_worker : -1, slot)) return false;
  run_slot(slot);
  return true;
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.tasks_executed = n_executed_.load(std::memory_order_relaxed);
  s.tasks_stolen = n_stolen_.load(std::memory_order_relaxed);
  s.tasks_injected = n_injected_.load(std::memory_order_relaxed);
  s.tasks_boxed = n_boxed_.load(std::memory_order_relaxed);
  s.splits = n_splits_.load(std::memory_order_relaxed);
  s.steal_attempts = n_steal_attempts_.load(std::memory_order_relaxed);
  s.parks = n_parks_.load(std::memory_order_relaxed);
  s.wakes = n_wakes_.load(std::memory_order_relaxed);
  return s;
}

std::int64_t ThreadPool::retired_buffers() const {
  std::int64_t total = 0;
  for (const auto& w : workers_) total += w->deque.retired_count();
  return total;
}

void ThreadPool::maybe_reclaim(int self) {
  if (self < 0) return;
  Worker& w = *workers_[static_cast<std::size_t>(self)];
  if (w.deque.retired_count() == 0 || w.deque.size_approx() > 0) return;
  // Quiescent point: no thread is mid-steal anywhere in the pool, so no
  // stale buffer pointer is live. A thief arriving after this check loads
  // the current buffer, which growth published long before retiring these.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (thieves_.load(std::memory_order_seq_cst) == 0) {
    w.deque.reclaim_retired();
  }
}

void ThreadPool::park(int idx) {
  Worker& w = *workers_[static_cast<std::size_t>(idx)];
  const bool has_bit = idx < 64;
  if (has_bit) {
    parked_mask_.fetch_or(1ull << idx, std::memory_order_seq_cst);
  }
  // Dekker re-check: a submitter either sees our bit (and wakes us) or we
  // see its work here. Without this a push landing between our last scan
  // and the mask store would be lost.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (work_visible() || stop_.load(std::memory_order_acquire)) {
    if (has_bit) {
      parked_mask_.fetch_and(~(1ull << idx), std::memory_order_seq_cst);
    }
    return;
  }
  n_parks_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(w.mu);
  if (has_bit) {
    w.cv.wait(lock, [&] { return w.notified; });
  } else {
    // Workers beyond the 64-bit mask cannot receive targeted wakeups; they
    // poll with a bounded sleep instead.
    w.cv.wait_for(lock, std::chrono::milliseconds(1),
                  [&] { return w.notified; });
  }
  w.notified = false;
}

void ThreadPool::worker_loop(int idx) {
  tl_pool = this;
  tl_worker = idx;
  TaskSlot slot;
  while (!stop_.load(std::memory_order_acquire)) {
    if (try_acquire(idx, slot)) {
      run_slot(slot);
      continue;
    }
    // Hungry: advertise demand (the lazy splitter's fork signal), spin with
    // backoff, then park. seeking_ stays raised across the park so a parked
    // worker still counts as demand.
    seeking_.fetch_add(1, std::memory_order_seq_cst);
    bool got = false;
    while (!got && !stop_.load(std::memory_order_acquire)) {
      const auto spin_deadline =
          std::chrono::steady_clock::now() + std::chrono::microseconds(spin_us_);
      int round = 0;
      while (!got && std::chrono::steady_clock::now() < spin_deadline) {
        if (stop_.load(std::memory_order_acquire)) break;
        got = try_acquire(idx, slot);
        if (!got) cpu_relax(round++);
      }
      if (got || stop_.load(std::memory_order_acquire)) break;
      park(idx);
      got = try_acquire(idx, slot);
    }
    seeking_.fetch_sub(1, std::memory_order_seq_cst);
    if (got) {
      run_slot(slot);
      // Natural quiescent candidate: this worker just drained; bound the
      // retired-buffer backlog while no thief can hold a stale pointer.
      maybe_reclaim(idx);
    }
  }
  tl_pool = nullptr;
  tl_worker = -1;
}

void ThreadPool::wait(TaskGroup& group) {
  // Help-then-backoff: completion is observed through the atomic counter
  // alone (a completer never touches the group after its final decrement,
  // so we may destroy the group the moment this returns). Helping keeps
  // nested parallelism deadlock-free; the backoff caps at a short sleep so
  // a waiter with no runnable work does not burn a core.
  int idle_rounds = 0;
  while (group.pending_.load(std::memory_order_acquire) > 0) {
    if (try_run_one()) {
      idle_rounds = 0;
      continue;
    }
    ++idle_rounds;
    if (idle_rounds < 64) {
      cpu_relax(idle_rounds);
    } else {
      // Exponential backoff, capped at ~128us, so tail latency to observe
      // the final decrement stays small.
      const int shift = idle_rounds - 64 < 7 ? idle_rounds - 64 : 7;
      std::this_thread::sleep_for(std::chrono::microseconds(1 << shift));
    }
  }
  if (tl_pool == this) maybe_reclaim(tl_worker);
}

}  // namespace triolet::runtime
