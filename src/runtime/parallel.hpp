#pragma once

// High-level parallel loop primitives built on the work-stealing pool:
// the OpenMP-analogue layer used by Triolet's localpar skeletons and by the
// low-level baseline implementations.
//
//   parallel_for      steal-driven lazy-splitting loop over [lo, hi)
//   parallel_reduce   chunked reduction with a *deterministic* combine order
//   parallel_invoke   run two callables concurrently
//   PerThread<T>      per-worker private accumulators (histogram
//                     privatization; paper §3.4: "sequentially builds one
//                     histogram per thread")
//
// Scheduling: a parallel_for is one RangeTask that walks its range in
// grain-sized chunks. Between chunks it checks the pool's demand signal
// (steal_demand(): some worker is hungry or parked); only then does it fork
// the far half of what remains as a new task. A balanced loop on a busy
// pool therefore runs almost entirely sequentially — zero task traffic,
// zero allocation — while an imbalanced loop sheds exactly as much work as
// idle workers ask for. `grain` is a *floor* on chunk size (splits stop at
// 2*grain so both halves stay >= grain), not the schedule: the old eager
// splitter materialized every grain-sized chunk as a heap-allocated task up
// front, which is what this replaces.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "support/macros.hpp"

namespace triolet::runtime {

using index_t = std::int64_t;

/// Grain size heuristic: aim for ~8 chunks per worker. Clamped to
/// [1, max(1, n)] so tiny ranges with many threads never yield a grain of 0
/// or larger than the range (no empty subranges).
index_t auto_grain(index_t n, int nthreads);

/// The pool implicit consumers (core/consume.hpp) schedule on: a
/// thread-local override if a PoolScope is active, else the pool the calling
/// thread is a worker of, else the global pool.
///
/// The override exists for the two-level distributed runtime: each simulated
/// cluster node (SPMD rank thread) owns its own pool, mirroring "cores of
/// one node" and keeping per-thread private accumulators disjoint between
/// nodes (a shared pool would let one node's waiting thread steal another
/// node's tasks). A worker needs no override: nested loops in a task it runs
/// stay on its own pool, so they neither escape the node nor share another
/// pool's PerThread slots.
ThreadPool& current_pool();

/// RAII: makes `pool` the calling thread's current_pool().
class PoolScope {
 public:
  explicit PoolScope(ThreadPool& pool);
  ~PoolScope();
  PoolScope(const PoolScope&) = delete;
  PoolScope& operator=(const PoolScope&) = delete;

 private:
  ThreadPool* prev_;
};

namespace detail {

/// The lazy splitter: a trivially copyable range descriptor that fits a
/// TaskSlot inline (no allocation per task). The referenced Body outlives
/// the loop because parallel_for does not return until the group drains.
template <typename Body>
struct RangeTask {
  const Body* body;
  index_t lo;
  index_t hi;
  index_t grain;

  void operator()(ThreadPool& pool, TaskGroup& group) {
    index_t a = lo;
    index_t b = hi;
    while (a < b) {
      // Fork the far half only when someone is hungry and both halves can
      // stay at or above the grain floor. An unstolen fork costs one deque
      // push + pop (LIFO: the owner takes it right back).
      if (b - a >= 2 * grain && pool.steal_demand()) {
        const index_t mid = a + (b - a) / 2;
        pool.submit(group, RangeTask<Body>{body, mid, b, grain});
        pool.note_split();
        b = mid;
        continue;
      }
      const index_t e = std::min(b, a + grain);
      (*body)(a, e);
      pool.note_chunk();
      a = e;
    }
  }
};

}  // namespace detail

/// Runs body(lo, hi) over subranges of [lo, hi) in parallel on `pool`.
/// `body` must be safe to run concurrently on disjoint ranges. Chunks are
/// never empty and never exceed `grain`; forked subranges stay >= grain
/// (both halves of a split clear the floor), but the last chunk of a
/// subrange is its tail and may be shorter than the grain.
template <typename Body>
void parallel_for(ThreadPool& pool, index_t lo, index_t hi, index_t grain,
                  const Body& body) {
  TRIOLET_ASSERT(lo <= hi);
  if (hi <= lo) return;
  if (grain <= 0) grain = auto_grain(hi - lo, pool.size());
  if (hi - lo <= grain) {
    body(lo, hi);
    pool.note_chunk();
    return;
  }
  TaskGroup group;
  detail::RangeTask<Body> root{&body, lo, hi, grain};
  root(pool, group);
  pool.wait(group);
}

/// parallel_for with the default grain.
template <typename Body>
void parallel_for(ThreadPool& pool, index_t lo, index_t hi, const Body& body) {
  parallel_for(pool, lo, hi, 0, body);
}

/// Chunked parallel reduction. `body(a, b, acc)` folds the subrange [a, b)
/// into `acc` and returns it; `combine(x, y)` merges two partials. Partials
/// are combined in ascending chunk order, so the result is independent of
/// scheduling (bitwise deterministic for a fixed grain).
template <typename T, typename Body, typename Combine>
T parallel_reduce(ThreadPool& pool, index_t lo, index_t hi, index_t grain,
                  T identity, const Body& body, const Combine& combine) {
  TRIOLET_ASSERT(lo <= hi);
  if (hi <= lo) return identity;
  if (grain <= 0) grain = auto_grain(hi - lo, pool.size());
  const index_t n = hi - lo;
  const index_t nchunks = (n + grain - 1) / grain;
  if (nchunks == 1) return body(lo, hi, std::move(identity));

  std::vector<T> partials(static_cast<std::size_t>(nchunks), identity);
  parallel_for(pool, 0, nchunks, 1, [&](index_t c0, index_t c1) {
    for (index_t c = c0; c < c1; ++c) {
      index_t a = lo + c * grain;
      index_t b = std::min(hi, a + grain);
      partials[static_cast<std::size_t>(c)] =
          body(a, b, partials[static_cast<std::size_t>(c)]);
    }
  });
  T acc = std::move(identity);
  for (auto& p : partials) acc = combine(std::move(acc), std::move(p));
  return acc;
}

template <typename T, typename Body, typename Combine>
T parallel_reduce(ThreadPool& pool, index_t lo, index_t hi, T identity,
                  const Body& body, const Combine& combine) {
  return parallel_reduce(pool, lo, hi, 0, std::move(identity), body, combine);
}

/// Runs `f` and `g` concurrently and waits for both.
template <typename F, typename G>
void parallel_invoke(ThreadPool& pool, const F& f, const G& g) {
  TaskGroup group;
  pool.submit(group, [&f] { f(); });
  g();
  pool.wait(group);
}

/// Per-worker private storage. Slot 0..size()-1 belong to pool workers;
/// the final slot belongs to the (single) external calling thread. Intended
/// use: privatized accumulators inside one parallel loop, then a sequential
/// pass over slots() to combine.
///
/// Disjointness holds under nesting (a nested loop's tasks still run on the
/// same pool's workers, so they land in the same slots) and across
/// concurrent PoolScopes (each rank's pool has its own workers, so two
/// ranks' PerThread instances never share a slot).
template <typename T>
class PerThread {
 public:
  PerThread(ThreadPool& pool, T init)
      : pool_(&pool),
        slots_(static_cast<std::size_t>(pool.size()) + 1, std::move(init)) {}

  /// The calling thread's slot.
  T& local() {
    int w = ThreadPool::current_worker();
    std::size_t idx = (w >= 0) ? static_cast<std::size_t>(w) : slots_.size() - 1;
    return slots_[idx];
  }

  std::vector<T>& slots() { return slots_; }
  const std::vector<T>& slots() const { return slots_; }

 private:
  ThreadPool* pool_;
  std::vector<T> slots_;
};

}  // namespace triolet::runtime
