#pragma once

// Work-stealing thread pool: the intra-node half of Triolet's two-level
// parallel architecture (§3.4). The original system used Threading Building
// Blocks; this pool fills the same role: fork-join task parallelism with
// per-worker Chase–Lev deques and randomized stealing.
//
// The task representation is allocation-free on the fast path: a task is a
// fixed-size TaskSlot (invoke thunk + group pointer + inline storage)
// stored *by value* in the deques. A callable that is small, trivially
// copyable, and trivially destructible lives inline in the slot; anything
// else is boxed on the heap and the thunk frees it after the call. The
// parallel-loop layer (runtime/parallel.hpp) only ever submits inline
// range descriptors, so steady-state loop execution performs no heap
// allocation per task.
//
// Idle workers spin briefly (TRIOLET_SPIN_US microseconds, exponential
// backoff with yields), then park on a per-worker condition variable.
// Submissions wake exactly one parked worker (targeted wakeup via a parked
// bitmask) instead of broadcasting; spinning workers find work on their
// own. `steal_demand()` exposes whether any worker is currently hungry —
// the signal the lazy splitter in parallel.hpp uses to decide when a
// sequential range is worth forking. Only workers raise it: a thread
// blocked in `wait` helps run queued tasks but never signals demand.
//
// Tasks are submitted into a TaskGroup; `wait` blocks until the group
// drains, *helping* (running queued tasks) rather than idling, so nested
// parallelism cannot deadlock. A waiter that runs out of runnable work
// backs off exponentially (pause → yield → bounded sleep) and periodically
// resumes helping; completion is observed through the group's atomic
// counter alone, so a finishing task never touches the group after its
// final decrement (the waiter may destroy the group immediately).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <new>
#include <thread>
#include <type_traits>
#include <vector>

#include "runtime/pool_stats.hpp"
#include "runtime/ws_deque.hpp"
#include "support/macros.hpp"

namespace triolet::runtime {

class ThreadPool;

/// A join point for a set of submitted tasks.
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  ~TaskGroup();

  std::int64_t pending() const {
    return pending_.load(std::memory_order_acquire);
  }

 private:
  friend class ThreadPool;
  std::atomic<std::int64_t> pending_{0};
};

/// One unit of schedulable work: a trivially copyable fixed-size slot. The
/// callable either lives inline in `storage` (small-buffer fast path) or is
/// a heap pointer the thunk deletes after invocation.
struct TaskSlot {
  /// Capacity of the inline small-buffer path.
  static constexpr std::size_t kInlineBytes = 48;

  using InvokeFn = void (*)(void* storage, ThreadPool& pool,
                            TaskGroup& group);

  InvokeFn invoke = nullptr;
  TaskGroup* group = nullptr;
  alignas(std::max_align_t) unsigned char storage[kInlineBytes];
};
static_assert(std::is_trivially_copyable_v<TaskSlot>);

class ThreadPool {
 public:
  /// Spawns `nthreads` workers (>= 1).
  explicit ThreadPool(int nthreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Process-wide pool. Size comes from TRIOLET_THREADS if set, else
  /// std::thread::hardware_concurrency().
  static ThreadPool& global();

  /// Index of the calling pool worker in [0, size()), or -1 for threads that
  /// are not workers of any pool.
  static int current_worker();

  /// The pool the calling thread is a worker of, or nullptr for threads
  /// that are not workers of any pool.
  static ThreadPool* current();

  /// Enqueues `fn` into `group`. Callable from workers and external
  /// threads. If `Fn` fits the slot's inline buffer and is trivially
  /// copyable + destructible it is stored inline (no allocation); otherwise
  /// it is boxed. A callable may take (ThreadPool&, TaskGroup&) to receive
  /// its execution context (used by the lazy range splitter to fork
  /// continuations into the right pool/group).
  template <typename F>
  void submit(TaskGroup& group, F&& fn) {
    using Fn = std::decay_t<F>;
    TaskSlot slot;
    slot.group = &group;
    constexpr bool kInline = sizeof(Fn) <= TaskSlot::kInlineBytes &&
                             std::is_trivially_copyable_v<Fn> &&
                             std::is_trivially_destructible_v<Fn>;
    if constexpr (kInline) {
      ::new (static_cast<void*>(slot.storage)) Fn(std::forward<F>(fn));
      slot.invoke = [](void* s, ThreadPool& p, TaskGroup& g) {
        Fn* f = std::launder(reinterpret_cast<Fn*>(s));
        if constexpr (std::is_invocable_v<Fn&, ThreadPool&, TaskGroup&>) {
          (*f)(p, g);
        } else {
          p.note_task();
          (void)g;
          (*f)();
        }
      };
    } else {
      Fn* boxed = new Fn(std::forward<F>(fn));
      std::memcpy(slot.storage, &boxed, sizeof(boxed));
      slot.invoke = [](void* s, ThreadPool& p, TaskGroup& g) {
        Fn* f = nullptr;
        std::memcpy(&f, s, sizeof(f));
        struct Reaper {
          Fn* f;
          ~Reaper() { delete f; }
        } reaper{f};
        if constexpr (std::is_invocable_v<Fn&, ThreadPool&, TaskGroup&>) {
          (*f)(p, g);
        } else {
          p.note_task();
          (void)g;
          (*f)();
        }
      };
      n_boxed_.fetch_add(1, std::memory_order_relaxed);
    }
    submit_slot(slot);
  }

  /// Blocks until every task submitted to `group` has finished, running
  /// queued tasks while waiting.
  void wait(TaskGroup& group);

  /// Runs one queued task if any is available. Returns false when no task
  /// could be obtained. Exposed for tests and for cooperative waiting.
  bool try_run_one();

  /// True when at least one worker is hungry: seeking work or parked. A
  /// thread helping in wait() does not count. The lazy splitter forks only
  /// while this holds, so a fully-busy pool executes ranges sequentially
  /// with zero task traffic.
  bool steal_demand() const {
    return seeking_.load(std::memory_order_relaxed) > 0;
  }

  /// Accounting hooks for the parallel-loop layer (relaxed counters).
  void note_task() { n_executed_.fetch_add(1, std::memory_order_relaxed); }
  void note_chunk() { n_executed_.fetch_add(1, std::memory_order_relaxed); }
  void note_split() { n_splits_.fetch_add(1, std::memory_order_relaxed); }

  /// Snapshot of the pool's lifetime counters.
  PoolStats stats() const;

  /// Total retired deque buffers awaiting reclamation (tests/diagnostics).
  std::int64_t retired_buffers() const;

 private:
  struct Worker {
    WsDeque<TaskSlot> deque;
    // Park state. `parked` mirrors this worker's bit in parked_mask_; the
    // mutex/cv pair is only touched on the slow path (park/wake).
    std::mutex mu;
    std::condition_variable cv;
    bool notified = false;
  };

  void worker_loop(int idx);
  void submit_slot(const TaskSlot& slot);
  bool try_acquire(int self, TaskSlot& out);
  bool try_acquire_injected(TaskSlot& out);
  void run_slot(TaskSlot& slot);
  void wake_one();
  void park(int idx);
  bool work_visible() const;
  void maybe_reclaim(int self);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Injection queue for submissions from non-worker threads.
  std::mutex inject_mu_;
  std::deque<TaskSlot> injected_;
  std::atomic<std::int64_t> injected_size_{0};

  // Bit i set => worker i is parked and may need a wakeup. Submitters CAS a
  // bit off before notifying, so each submission wakes at most one worker.
  std::atomic<std::uint64_t> parked_mask_{0};
  // Number of workers currently hungry (seeking work or parked): the lazy
  // splitter's demand signal.
  std::atomic<int> seeking_{0};
  // Number of threads currently scanning other workers' deques; retired
  // deque buffers are only reclaimed when this is 0.
  std::atomic<int> thieves_{0};
  std::atomic<bool> stop_{false};

  int spin_us_ = 50;  // TRIOLET_SPIN_US

  std::atomic<std::int64_t> n_executed_{0};
  std::atomic<std::int64_t> n_stolen_{0};
  std::atomic<std::int64_t> n_injected_{0};
  std::atomic<std::int64_t> n_boxed_{0};
  std::atomic<std::int64_t> n_splits_{0};
  std::atomic<std::int64_t> n_steal_attempts_{0};
  std::atomic<std::int64_t> n_parks_{0};
  std::atomic<std::int64_t> n_wakes_{0};
};

}  // namespace triolet::runtime
