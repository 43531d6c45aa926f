// Intra-node runtime comparison: eager-splitting baseline vs the adaptive
// work-stealing runtime on an imbalanced localpar reduction at 8 workers.
//
// The workload is the tpacf triangular loop (paper §3.2 / fig 7): item i
// costs O(i), so a static or eagerly pre-split schedule pays per-task
// overhead on thousands of tiny left-edge chunks while the right edge
// dominates the critical path. The baseline reimplements the runtime this
// PR replaced: every grain-sized chunk materialized up front as a
// heap-allocated std::function, pushed through one mutex-guarded shared
// queue, with notify_all broadcast wakeups — exactly the allocation and
// wakeup traffic the TaskSlot + lazy-splitting + targeted-wake runtime
// removes. Both sides compute the identical chunk-ordered reduction, so
// results are bitwise comparable.
//
// Flags: --workers=N --reps=N --check (CI smoke mode: asserts the
// lazy-splitting invariant — a balanced loop on a busy pool sheds almost
// no tasks to thieves — at 4 workers, and that the streamed grant path
// executes grants and matches the non-streamed sum at 4 ranks).

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/driver.hpp"
#include "bench_problems.hpp"
#include "core/triolet.hpp"
#include "dist/skeletons.hpp"
#include "net/cluster.hpp"
#include "runtime/parallel.hpp"
#include "support/table.hpp"
#include "support/timing.hpp"

using namespace triolet;
using runtime::index_t;

namespace {

// Many small chunks: per-task overhead (the thing this PR attacks) must be
// a visible fraction of each chunk, or both runtimes just measure sin().
constexpr index_t kItems = 32768;
constexpr index_t kGrain = 2;
constexpr int kMaxIter = 16;  // item kItems-1 does kMaxIter sin iterations

/// Cost of item i: O(i) sin iterations (triangular, tpacf-shaped), scaled
/// so a chunk is sub-microsecond on the left edge of the triangle and the
/// per-task overhead the two runtimes differ on stays visible.
double item_work(index_t i) {
  double v = 0.0;
  const int n = static_cast<int>((i * kMaxIter) / kItems);
  for (int k = 0; k < n; ++k) v += std::sin(v + 1e-3 * k);
  return v;
}

/// Folds [a, b) in ascending order — the chunk body both runtimes share.
double fold_range(index_t a, index_t b, double acc) {
  for (index_t i = a; i < b; ++i) acc += item_work(i);
  return acc;
}

// -- the replaced runtime, preserved as the baseline --------------------------

/// The pre-overhaul execution model: one shared queue of heap-allocated
/// std::function tasks, a single mutex, and notify_all on every submit.
class EagerPool {
 public:
  explicit EagerPool(int nthreads) {
    for (int i = 0; i < nthreads; ++i) {
      threads_.emplace_back([this] { loop(); });
    }
  }

  ~EagerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(task));
      pending_ += 1;
    }
    cv_.notify_all();  // the broadcast the adaptive runtime eliminated
  }

  /// Blocks the caller until every submitted task has finished.
  void wait_idle() {
    std::unique_lock<std::mutex> lock(mu_);
    drained_.wait(lock, [&] { return pending_ == 0; });
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      auto task = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      task();
      lock.lock();
      if (--pending_ == 0) drained_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable drained_;
  std::deque<std::function<void()>> queue_;
  index_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// One node of the eager binary split tree over chunk indices [c0, c1):
/// an interior node queues both halves as fresh tasks and returns (the old
/// parallel_for materialized the whole tree before any leaf ran); a leaf
/// computes its grain-sized chunk. Splitting on chunk indices keeps the
/// chunk boundaries — and therefore the combine order and the bits of the
/// result — identical to runtime::parallel_reduce.
void eager_node(EagerPool& pool, std::vector<double>* partials, index_t c0,
                index_t c1, index_t n, index_t grain) {
  if (c1 - c0 == 1) {
    const index_t a = c0 * grain;
    const index_t b = std::min(n, a + grain);
    (*partials)[static_cast<std::size_t>(c0)] = fold_range(a, b, 0.0);
    return;
  }
  const index_t cm = c0 + (c1 - c0) / 2;
  pool.submit([&pool, partials, c0, cm, n, grain] {
    eager_node(pool, partials, c0, cm, n, grain);
  });
  pool.submit([&pool, partials, cm, c1, n, grain] {
    eager_node(pool, partials, cm, c1, n, grain);
  });
}

double eager_reduce(EagerPool& pool, index_t n, index_t grain) {
  const index_t nchunks = (n + grain - 1) / grain;
  std::vector<double> partials(static_cast<std::size_t>(nchunks), 0.0);
  pool.submit([&pool, &partials, nchunks, n, grain] {
    eager_node(pool, &partials, 0, nchunks, n, grain);
  });
  pool.wait_idle();
  double acc = 0.0;
  for (double p : partials) acc += p;
  return acc;
}

double adaptive_reduce(runtime::ThreadPool& pool, index_t n, index_t grain) {
  return runtime::parallel_reduce(
      pool, index_t{0}, n, grain, 0.0, fold_range,
      [](double a, double b) { return a + b; });
}

/// Best-of-reps wall time for one already-constructed pool (construction
/// and teardown excluded from both sides).
template <typename Fn>
double best_seconds(int reps, const Fn& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.seconds());
  }
  return best;
}

// -- CI smoke checks ----------------------------------------------------------

int run_checks() {
  int failures = 0;
  auto check = [&](const std::string& what, bool holds) {
    apps::shape_check(what, holds);
    if (!holds) failures += 1;
  };

  // Lazy-splitting invariant: a balanced loop keeps nearly all chunks on
  // the worker that owns the range — steals stay far below executed tasks.
  {
    runtime::ThreadPool pool(4);
    std::atomic<index_t> total{0};
    for (int round = 0; round < 5; ++round) {
      runtime::parallel_for(pool, index_t{0}, index_t{20000}, index_t{10},
                            [&](index_t a, index_t b) {
                              total.fetch_add(b - a,
                                              std::memory_order_relaxed);
                            });
    }
    const auto st = pool.stats();
    check("balanced loop executed every element",
          total.load() == 5 * 20000);
    check("lazy splitting: tasks_stolen << tasks_executed (4 workers)",
          st.tasks_executed > 0 && st.tasks_stolen * 10 < st.tasks_executed);
  }

  // Streamed grant path: grants execute through the node pool while the
  // next grant is in flight, and the sum matches the non-streamed run.
  {
    constexpr index_t kN = 512;
    Array1<double> xs(kN);
    for (index_t i = 0; i < kN; ++i) xs[i] = static_cast<double>(i);
    auto run = [&](bool streaming) {
      sched::SchedOptions opts{sched::SchedulePolicy::kDynamic,
                               sched::CombineMode::kOrdered, 32};
      opts.streaming = streaming;
      double result = 0.0;
      net::SchedStats sched_stats;
      runtime::PoolStats pool_stats;
      auto res = net::Cluster::run(4, [&](net::Comm& comm) {
        dist::NodeRuntime node(2);
        auto make = [&] {
          return core::map(core::from_array(xs), [](double x) {
            double v = 0.0;
            for (int k = 0; k < 64; ++k) v += std::sin(v + 1e-3 * k + x);
            return v;
          });
        };
        double r = dist::reduce(comm, make, 0.0,
                                [](double a, double b) { return a + b; },
                                opts);
        if (comm.rank() == 0) result = r;
      });
      if (!res.ok) {
        std::fprintf(stderr, "cluster failed: %s\n", res.error.c_str());
        std::exit(1);
      }
      sched_stats = res.total_stats.sched;
      pool_stats = res.total_stats.pool;
      return std::make_tuple(result, sched_stats, pool_stats);
    };
    auto [plain, plain_sched, plain_pool] = run(false);
    auto [streamed, stream_sched, stream_pool] = run(true);
    check("streamed sum bitwise identical to non-streamed (4 ranks)",
          std::memcmp(&plain, &streamed, sizeof(double)) == 0);
    check("streaming executed every chunk as a streamed grant",
          stream_sched.streamed_grants > 0 &&
              stream_sched.streamed_grants == stream_sched.chunks_executed);
    check("non-streamed run records no streamed grants",
          plain_sched.streamed_grants == 0);
    check("node pools did the streamed work",
          stream_pool.tasks_executed > 0);
  }

  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int workers = 8;
  int reps = 5;
  bool check_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workers=", 0) == 0) {
      workers = std::atoi(arg.c_str() + 10);
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = std::atoi(arg.c_str() + 7);
    } else if (arg == "--check") {
      check_only = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  if (check_only) return run_checks();

  std::printf("== bm_localpar: eager-splitting baseline vs adaptive runtime, "
              "%d workers ==\n", workers);

  const index_t nchunks = (kItems + kGrain - 1) / kGrain;

  double eager_result = 0.0;
  const double t_eager = [&] {
    EagerPool pool(workers);
    return best_seconds(reps, [&] {
      eager_result = eager_reduce(pool, kItems, kGrain);
    });
  }();

  double adaptive_result = 0.0;
  runtime::PoolStats stats;
  const double t_adaptive = [&] {
    runtime::ThreadPool pool(workers);
    const double t = best_seconds(reps, [&] {
      adaptive_result = adaptive_reduce(pool, kItems, kGrain);
    });
    stats = pool.stats();
    return t;
  }();

  const double speedup = t_eager / t_adaptive;

  Table t({"runtime", "tasks alloc'd", "time (s)", "speedup"});
  t.add_row({"eager (heap tasks, broadcast)",
             Table::num(static_cast<std::int64_t>((2 * nchunks - 1) * reps)),
             Table::num(t_eager, 6), "1.00x"});
  t.add_row({"adaptive (inline slots, lazy split)",
             Table::num(stats.tasks_boxed), Table::num(t_adaptive, 6),
             Table::num(speedup, 2) + "x"});
  t.print("imbalanced triangular reduction, " + std::to_string(kItems) +
          " items, grain " + std::to_string(kGrain));

  Table p({"tasks_executed", "tasks_stolen", "splits", "steal_attempts",
           "parks", "wakes"});
  p.add_row({Table::num(stats.tasks_executed), Table::num(stats.tasks_stolen),
             Table::num(stats.splits), Table::num(stats.steal_attempts),
             Table::num(stats.parks), Table::num(stats.wakes)});
  p.print("adaptive-runtime PoolStats over " + std::to_string(reps) + " reps");

  apps::shape_check("results bitwise identical across runtimes",
                    std::memcmp(&eager_result, &adaptive_result,
                                sizeof(double)) == 0);
  apps::shape_check("adaptive runtime >= 1.3x over eager baseline",
                    speedup >= 1.3);
  apps::shape_check("no heap-boxed tasks on the reduction hot path",
                    stats.tasks_boxed == 0);

  // Machine-readable record (bench/BENCH_localpar.json keeps a checked-in
  // copy).
  std::printf("\n{\n");
  std::printf("  \"workload\": {\"items\": %lld, \"grain\": %lld, "
              "\"chunks\": %lld, \"shape\": \"triangular\"},\n",
              static_cast<long long>(kItems), static_cast<long long>(kGrain),
              static_cast<long long>(nchunks));
  std::printf("  \"workers\": %d,\n", workers);
  std::printf("  \"seconds\": {\"eager\": %.6e, \"adaptive\": %.6e},\n",
              t_eager, t_adaptive);
  std::printf("  \"speedup_vs_eager\": %.3f,\n", speedup);
  std::printf("  \"pool_stats\": {\"tasks_executed\": %lld, "
              "\"tasks_stolen\": %lld, \"splits\": %lld, \"parks\": %lld, "
              "\"wakes\": %lld, \"tasks_boxed\": %lld},\n",
              static_cast<long long>(stats.tasks_executed),
              static_cast<long long>(stats.tasks_stolen),
              static_cast<long long>(stats.splits),
              static_cast<long long>(stats.parks),
              static_cast<long long>(stats.wakes),
              static_cast<long long>(stats.tasks_boxed));
  std::printf("  \"results_bitwise_identical\": %s\n",
              std::memcmp(&eager_result, &adaptive_result, sizeof(double)) == 0
                  ? "true" : "false");
  std::printf("}\n");
  return 0;
}
