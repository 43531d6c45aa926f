// Tests for the work-stealing runtime: deque semantics (including a
// multithreaded steal hammer), pool fork-join, parallel_for coverage,
// parallel_reduce determinism, nesting, per-thread storage, and which pool
// current_pool() resolves to.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <set>
#include <thread>

#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/ws_deque.hpp"

namespace triolet::runtime {
namespace {

TEST(WsDeque, LifoForOwner) {
  WsDeque<int*> d;
  int a = 1, b = 2, c = 3;
  d.push(&a);
  d.push(&b);
  d.push(&c);
  int* out = nullptr;
  ASSERT_TRUE(d.pop(out));
  EXPECT_EQ(out, &c);
  ASSERT_TRUE(d.pop(out));
  EXPECT_EQ(out, &b);
  ASSERT_TRUE(d.pop(out));
  EXPECT_EQ(out, &a);
  EXPECT_FALSE(d.pop(out));
}

TEST(WsDeque, FifoForThief) {
  WsDeque<int*> d;
  int a = 1, b = 2;
  d.push(&a);
  d.push(&b);
  int* out = nullptr;
  ASSERT_TRUE(d.steal(out));
  EXPECT_EQ(out, &a);  // thief takes oldest
  ASSERT_TRUE(d.steal(out));
  EXPECT_EQ(out, &b);
  EXPECT_FALSE(d.steal(out));
}

TEST(WsDeque, GrowsPastInitialCapacity) {
  WsDeque<std::int64_t*> d(4);
  std::vector<std::int64_t> vals(1000);
  for (auto& v : vals) d.push(&v);
  EXPECT_EQ(d.size_approx(), 1000);
  std::int64_t* out = nullptr;
  for (int i = 999; i >= 0; --i) {
    ASSERT_TRUE(d.pop(out));
    EXPECT_EQ(out, &vals[static_cast<size_t>(i)]);
  }
}

TEST(WsDeque, ConcurrentStealsLoseNothingAndDuplicateNothing) {
  // Owner pushes/pops while 3 thieves steal; every element must be consumed
  // exactly once across all consumers.
  constexpr int kN = 20000;
  WsDeque<std::int64_t*> d;
  std::vector<std::int64_t> items(kN);
  for (int i = 0; i < kN; ++i) items[static_cast<size_t>(i)] = i;

  std::atomic<bool> done{false};
  std::atomic<std::int64_t> stolen_sum{0};
  std::atomic<std::int64_t> stolen_count{0};

  auto thief = [&] {
    std::int64_t* p = nullptr;
    while (!done.load(std::memory_order_acquire)) {
      if (d.steal(p)) {
        stolen_sum.fetch_add(*p);
        stolen_count.fetch_add(1);
      }
    }
    while (d.steal(p)) {
      stolen_sum.fetch_add(*p);
      stolen_count.fetch_add(1);
    }
  };
  std::thread t1(thief), t2(thief), t3(thief);

  std::int64_t own_sum = 0, own_count = 0;
  for (int i = 0; i < kN; ++i) d.push(&items[static_cast<size_t>(i)]);
  std::int64_t* p = nullptr;
  while (d.pop(p)) {
    own_sum += *p;
    ++own_count;
  }
  done.store(true, std::memory_order_release);
  t1.join();
  t2.join();
  t3.join();

  EXPECT_EQ(own_count + stolen_count.load(), kN);
  EXPECT_EQ(own_sum + stolen_sum.load(),
            static_cast<std::int64_t>(kN) * (kN - 1) / 2);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  TaskGroup g;
  for (int i = 0; i < 100; ++i) {
    pool.submit(g, [&] { ran.fetch_add(1); });
  }
  pool.wait(g);
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(g.pending(), 0);
}

TEST(ThreadPool, WorkerIndexVisibleInsideTasks) {
  ThreadPool pool(2);
  std::atomic<int> bad{0};
  TaskGroup g;
  for (int i = 0; i < 50; ++i) {
    pool.submit(g, [&] {
      // Tasks run either on a pool worker (index in [0, size)) or on the
      // external waiting thread, which helps with index -1.
      int w = ThreadPool::current_worker();
      if (w < -1 || w >= 2) bad.fetch_add(1);
    });
  }
  pool.wait(g);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(ThreadPool::current_worker(), -1);  // external thread
}

TEST(ThreadPool, NestedSubmissionFromWorkers) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  TaskGroup outer;
  for (int i = 0; i < 10; ++i) {
    pool.submit(outer, [&] {
      TaskGroup inner;
      for (int j = 0; j < 10; ++j) {
        pool.submit(inner, [&] { ran.fetch_add(1); });
      }
      pool.wait(inner);
    });
  }
  pool.wait(outer);
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr index_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(pool, 0, kN, 7, [&](index_t a, index_t b) {
    for (index_t i = a; i < b; ++i) hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (index_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for(pool, 5, 5, [&](index_t, index_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, RespectsGrainAsLowerBoundOnChunks) {
  // Each task runs one contiguous range in grain-sized steps, and between
  // steps it may fork away the far half of what is left, only when both
  // halves keep >= grain. Steps can come before a fork, so the ranges are
  // not halvings of 1000, but each is >= grain and only its last chunk may
  // fall short: a range of L units runs ceil(L / 100) chunks. Ranges of
  // 101-199 units give the most chunks per unit, and at most nine of them
  // fit in 1000, so no run exceeds 18 chunks. How far splitting goes
  // depends on steal demand, so only that bound and the coverage are fixed.
  ThreadPool pool(4);
  std::atomic<int> chunks{0};
  std::atomic<index_t> largest{0}, covered{0};
  parallel_for(pool, 0, 1000, 100, [&](index_t a, index_t b) {
    ASSERT_LT(a, b);  // never an empty chunk
    chunks.fetch_add(1);
    covered.fetch_add(b - a);
    index_t sz = b - a;
    index_t cur = largest.load();
    while (sz > cur && !largest.compare_exchange_weak(cur, sz)) {
    }
  });
  EXPECT_LE(chunks.load(), 18);  // 9 ranges of 101-199 units, 2 chunks each
  EXPECT_LE(largest.load(), 100);  // a chunk never exceeds the grain
  EXPECT_EQ(covered.load(), 1000);  // disjoint chunks cover the range
}

TEST(ParallelReduce, SumsCorrectly) {
  ThreadPool pool(4);
  constexpr index_t kN = 100000;
  auto r = parallel_reduce(
      pool, 0, kN, 0, std::int64_t{0},
      [](index_t a, index_t b, std::int64_t acc) {
        for (index_t i = a; i < b; ++i) acc += i;
        return acc;
      },
      [](std::int64_t x, std::int64_t y) { return x + y; });
  EXPECT_EQ(r, kN * (kN - 1) / 2);
}

TEST(ParallelReduce, FloatingPointResultIsSchedulingIndependent) {
  // Partials combine in chunk order, so two runs agree bitwise.
  ThreadPool pool(4);
  auto run = [&] {
    return parallel_reduce(
        pool, 0, 50000, 64, 0.0,
        [](index_t a, index_t b, double acc) {
          for (index_t i = a; i < b; ++i)
            acc += 1.0 / (1.0 + static_cast<double>(i));
          return acc;
        },
        [](double x, double y) { return x + y; });
  };
  double r1 = run();
  for (int rep = 0; rep < 5; ++rep) {
    ASSERT_EQ(run(), r1) << "rep " << rep;
  }
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  ThreadPool pool(2);
  auto r = parallel_reduce(
      pool, 3, 3, 0, 42,
      [](index_t, index_t, int acc) { return acc + 1; },
      [](int x, int y) { return x + y; });
  EXPECT_EQ(r, 42);
}

TEST(ParallelInvoke, RunsBothBranches) {
  ThreadPool pool(2);
  std::atomic<int> a{0}, b{0};
  parallel_invoke(pool, [&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 2);
}

TEST(PerThread, SlotsAreDisjointPerWorker) {
  ThreadPool pool(4);
  PerThread<std::int64_t> acc(pool, 0);
  parallel_for(pool, 0, 100000, 10, [&](index_t a, index_t b) {
    acc.local() += (b - a);
  });
  std::int64_t total = 0;
  for (auto v : acc.slots()) total += v;
  EXPECT_EQ(total, 100000);
}

TEST(PerThread, ExternalThreadUsesOverflowSlot) {
  ThreadPool pool(2);
  PerThread<int> acc(pool, 0);
  acc.local() = 9;  // calling thread is not a pool worker
  EXPECT_EQ(acc.slots().back(), 9);
}

TEST(AutoGrain, ProducesReasonableChunking) {
  EXPECT_GE(auto_grain(0, 4), 1);
  EXPECT_GE(auto_grain(1, 4), 1);
  EXPECT_EQ(auto_grain(3200, 4), 100);  // 8 chunks per worker
  EXPECT_GE(auto_grain(10, 128), 1);
}

TEST(AutoGrain, DegenerateCasesStayClamped) {
  // Tiny n with huge thread counts: grain floors at 1 (never 0, which would
  // loop forever) and never exceeds n.
  EXPECT_EQ(auto_grain(5, 128), 1);
  EXPECT_EQ(auto_grain(1, 1), 1);
  EXPECT_EQ(auto_grain(1, 1024), 1);
  EXPECT_EQ(auto_grain(0, 1), 1);
  // Pinned targets: n / (8 * nthreads) once that is >= 1.
  EXPECT_EQ(auto_grain(100, 1), 12);
  EXPECT_EQ(auto_grain(8, 1), 1);
  EXPECT_EQ(auto_grain(16, 1), 2);
  EXPECT_EQ(auto_grain(1 << 20, 8), (1 << 20) / 64);
  // Defensive: nonsense thread counts behave like 1.
  EXPECT_EQ(auto_grain(64, 0), 8);
  for (index_t n : {1, 2, 5, 9, 100}) {
    for (int t : {1, 2, 64, 4096}) {
      index_t g = auto_grain(n, t);
      ASSERT_GE(g, 1) << n << "/" << t;
      ASSERT_LE(g, n) << n << "/" << t;
    }
  }
}

TEST(AutoGrain, TinyRangeOnWidePoolProducesNoEmptySubranges) {
  ThreadPool pool(8);
  for (index_t n : {1, 2, 3, 7}) {
    std::atomic<int> chunks{0};
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    parallel_for(pool, 0, n, 0, [&](index_t a, index_t b) {
      ASSERT_LT(a, b) << "empty subrange";
      chunks.fetch_add(1);
      for (index_t i = a; i < b; ++i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
      }
    });
    EXPECT_LE(chunks.load(), static_cast<int>(n));
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1);
    }
  }
}

// -- deque growth + retired-buffer reclamation --------------------------------

struct Wide {
  std::int64_t a;
  std::int64_t b;
  std::int64_t c;
};

TEST(WsDeque, GrowthStressPreservesMultiWordValues) {
  // Repeated fill/drain cycles from a tiny initial capacity: every growth
  // must carry the live window intact, including values wider than one
  // atomic word.
  WsDeque<Wide> d(2);
  for (int cycle = 0; cycle < 5; ++cycle) {
    const std::int64_t n = 100 << cycle;
    for (std::int64_t i = 0; i < n; ++i) d.push(Wide{i, 2 * i, -i});
    Wide out{};
    for (std::int64_t i = n - 1; i >= 0; --i) {
      ASSERT_TRUE(d.pop(out));
      ASSERT_EQ(out.a, i);
      ASSERT_EQ(out.b, 2 * i);
      ASSERT_EQ(out.c, -i);
    }
    EXPECT_FALSE(d.pop(out));
  }
  // Growth retired the smaller buffers; an owner-side reclaim at this
  // (trivially quiescent) point frees them all.
  EXPECT_GT(d.retired_count(), 0);
  d.reclaim_retired();
  EXPECT_EQ(d.retired_count(), 0);
  // The deque still works after reclamation.
  d.push(Wide{7, 8, 9});
  Wide out{};
  ASSERT_TRUE(d.steal(out));
  EXPECT_EQ(out.b, 8);
}

TEST(ThreadPool, RetiredBuffersAreReclaimedAtQuiescentPoints) {
  ThreadPool pool(2);
  // Force deque growth: one task fans out far past the 64-slot initial
  // capacity from inside a worker (own-deque pushes).
  std::atomic<std::int64_t> ran{0};
  TaskGroup g;
  pool.submit(g, [&] {
    TaskGroup inner;
    for (int i = 0; i < 5000; ++i) {
      pool.submit(inner, [&] { ran.fetch_add(1); });
    }
    pool.wait(inner);
  });
  pool.wait(g);
  EXPECT_EQ(ran.load(), 5000);
  // Reclamation happens when a worker drains at a moment no thief is
  // mid-scan; drive a few trivial rounds until the backlog hits zero
  // (bounded: this converges in one or two rounds in practice).
  for (int round = 0; round < 200 && pool.retired_buffers() > 0; ++round) {
    TaskGroup r;
    for (int i = 0; i < 8; ++i) pool.submit(r, [] {});
    pool.wait(r);
    std::this_thread::yield();
  }
  EXPECT_EQ(pool.retired_buffers(), 0);
}

// -- task slots ----------------------------------------------------------------

TEST(ThreadPool, SmallTasksStayInlineLargeTasksAreBoxed) {
  ThreadPool pool(2);
  const std::int64_t boxed_before = pool.stats().tasks_boxed;
  TaskGroup g;
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit(g, [&ran] { ran.fetch_add(1); });  // 8-byte capture: inline
  }
  pool.wait(g);
  EXPECT_EQ(pool.stats().tasks_boxed, boxed_before);

  // A capture owning heap state is not trivially copyable -> boxed path.
  std::vector<int> payload(100, 3);
  TaskGroup g2;
  pool.submit(g2, [&ran, payload] { ran.fetch_add(payload[0]); });
  pool.wait(g2);
  EXPECT_EQ(pool.stats().tasks_boxed, boxed_before + 1);
  EXPECT_EQ(ran.load(), 32 + 3);
}

// -- adaptive scheduling counters ----------------------------------------------

TEST(ThreadPool, LazySplittingKeepsStealsFarBelowChunks) {
  // Balanced loop, many chunks: lazy splitting forks only on observed
  // demand, so the number of migrated (stolen) tasks must stay a small
  // fraction of the logical chunks executed.
  ThreadPool pool(4);
  const auto before = pool.stats();
  std::atomic<std::int64_t> sum{0};
  for (int round = 0; round < 5; ++round) {
    parallel_for(pool, 0, 20000, 10, [&](index_t a, index_t b) {
      std::int64_t s = 0;
      for (index_t i = a; i < b; ++i) s += i;
      sum.fetch_add(s, std::memory_order_relaxed);
    });
  }
  const auto after = pool.stats();
  const std::int64_t chunks = after.tasks_executed - before.tasks_executed;
  const std::int64_t stolen = after.tasks_stolen - before.tasks_stolen;
  EXPECT_GE(chunks, 5 * (20000 / 10));
  EXPECT_LT(stolen * 10, chunks) << "eager-splitting-level task migration";
}

TEST(ThreadPool, ParkAndTargetedWakeCountersAdvance) {
  ThreadPool pool(3);
  // Idle workers spin out their budget and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_GT(pool.stats().parks, 0);
  // A submission wakes (at most) one parked worker, not all of them.
  TaskGroup g;
  std::atomic<int> ran{0};
  pool.submit(g, [&] { ran.fetch_add(1); });
  pool.wait(g);
  EXPECT_EQ(ran.load(), 1);
  EXPECT_GT(pool.stats().wakes, 0);
  EXPECT_GT(pool.stats().steal_attempts, 0);
}

// -- current_pool() ------------------------------------------------------------

TEST(CurrentPool, WorkerWithoutScopeResolvesToItsOwnPool) {
  // A task on a worker of a non-global pool, with no PoolScope anywhere:
  // loops nested inside it must stay on that pool instead of escaping to
  // the process-wide one.
  ThreadPool pool(2);
  std::promise<std::pair<int, ThreadPool*>> seen;
  TaskGroup g;
  pool.submit(g, [&] {
    seen.set_value({ThreadPool::current_worker(), &current_pool()});
  });
  // Blocking on the future rather than helping in wait() keeps this thread
  // from running the task itself.
  const auto [worker, resolved] = seen.get_future().get();
  pool.wait(g);
  EXPECT_GE(worker, 0);
  EXPECT_EQ(resolved, &pool);
}

// -- PerThread under nesting and concurrent pool scopes ------------------------

TEST(PerThread, DisjointUnderNestedParallelFor) {
  ThreadPool pool(4);
  PoolScope scope(pool);
  PerThread<std::int64_t> acc(pool, 0);
  parallel_for(pool, 0, 40, 1, [&](index_t oa, index_t ob) {
    for (index_t o = oa; o < ob; ++o) {
      // Nested loop on the same pool: inner chunks still run on this
      // pool's workers (or the helping waiter), so every increment lands
      // in a slot this PerThread owns.
      parallel_for(current_pool(), 0, 250, 25, [&](index_t a, index_t b) {
        acc.local() += (b - a);
      });
    }
  });
  std::int64_t total = 0;
  for (auto v : acc.slots()) total += v;
  EXPECT_EQ(total, 40 * 250);
}

TEST(PerThread, TwoConcurrentPoolScopesKeepAccumulatorsDisjoint) {
  // Two simulated ranks: each thread owns a pool, scopes it, and runs its
  // own privatized accumulation. Pools share nothing, so neither rank's
  // total can bleed into the other's slots.
  constexpr index_t kN0 = 60000, kN1 = 35000;
  std::int64_t total0 = -1, total1 = -1;
  auto rank_body = [](index_t n, std::int64_t* out) {
    ThreadPool pool(2);
    PoolScope scope(pool);
    PerThread<std::int64_t> acc(pool, 0);
    parallel_for(current_pool(), 0, n, 100, [&](index_t a, index_t b) {
      acc.local() += (b - a);
    });
    std::int64_t total = 0;
    for (auto v : acc.slots()) total += v;
    *out = total;
  };
  std::thread r0(rank_body, kN0, &total0);
  std::thread r1(rank_body, kN1, &total1);
  r0.join();
  r1.join();
  EXPECT_EQ(total0, kN0);
  EXPECT_EQ(total1, kN1);
}

// Parameterized stress: correctness at several pool widths.
class PoolWidth : public ::testing::TestWithParam<int> {};

TEST_P(PoolWidth, ReduceMatchesSerialAcrossWidths) {
  ThreadPool pool(GetParam());
  auto r = parallel_reduce(
      pool, 0, 9999, 0, std::int64_t{0},
      [](index_t a, index_t b, std::int64_t acc) {
        for (index_t i = a; i < b; ++i) acc += i * i;
        return acc;
      },
      [](std::int64_t x, std::int64_t y) { return x + y; });
  std::int64_t expect = 0;
  for (index_t i = 0; i < 9999; ++i) expect += i * i;
  EXPECT_EQ(r, expect);
}

INSTANTIATE_TEST_SUITE_P(Widths, PoolWidth, ::testing::Values(1, 2, 3, 8));

}  // namespace
}  // namespace triolet::runtime
