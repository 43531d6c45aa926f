#pragma once

// Thread-pool counters, kept apart from the pool itself so net::CommStats
// can carry them (as CommStats::pool) without depending on the rest of
// runtime/.

#include <cstdint>

#include "support/fields.hpp"

namespace triolet::runtime {

/// Lifetime counters of a pool (approximate; relaxed atomics).
///
/// `tasks_executed` counts *logical* tasks: one per plain submitted
/// callable, one per grain-chunk a parallel loop processes — the unit the
/// eager splitter used to materialize as a real task. `tasks_stolen` counts
/// deque steals of materialized slots, so tasks_stolen / tasks_executed is
/// the fraction of loop work that actually migrated (≪ 1 under lazy
/// splitting on a balanced loop).
struct PoolStats {
  std::int64_t tasks_executed = 0;  // logical tasks (chunks + plain tasks)
  std::int64_t tasks_stolen = 0;    // slots obtained from another deque
  std::int64_t tasks_injected = 0;  // slots submitted by non-worker threads
  std::int64_t tasks_boxed = 0;     // slots that fell off the inline path
  std::int64_t splits = 0;          // lazy splits (steal-driven forks)
  std::int64_t steal_attempts = 0;  // deque scans while hungry
  std::int64_t parks = 0;           // times a worker blocked on its cv
  std::int64_t wakes = 0;           // targeted wakeups issued
};

TRIOLET_STATS_FIELDS(PoolStats, tasks_executed, tasks_stolen, tasks_injected,
                     tasks_boxed, splits, steal_attempts, parks, wakes)

}  // namespace triolet::runtime
