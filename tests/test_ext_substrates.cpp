// Tests for substrate extensions: non-blocking receive, pairwise exchange,
// allgather, and thread-pool statistics.

#include <gtest/gtest.h>

#include <numeric>

#include "net/cluster.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"

namespace triolet {
namespace {

TEST(NetExt, TryRecvReturnsNulloptWhenEmpty) {
  auto res = net::Cluster::run(2, [](net::Comm& c) {
    if (c.rank() == 1) {
      EXPECT_FALSE(c.try_recv<int>(0, 9).has_value());
      c.send(0, 1, 1);          // let rank 0 proceed
      (void)c.recv<int>(0, 9);  // then take the real message
    } else {
      (void)c.recv<int>(1, 1);
      c.send(1, 9, 42);
    }
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(NetExt, TryRecvDrainsQueuedMessages) {
  auto res = net::Cluster::run(2, [](net::Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 5; ++i) c.send(1, 3, i);
      c.send(1, 4, -1);  // completion marker
    } else {
      (void)c.recv<int>(0, 4);  // all five data messages are queued now
      int got = 0, sum = 0;
      while (auto v = c.try_recv<int>(0, 3)) {
        ++got;
        sum += *v;
      }
      EXPECT_EQ(got, 5);
      EXPECT_EQ(sum, 10);
    }
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(NetExt, ExchangeSwapsValuesPairwise) {
  auto res = net::Cluster::run(4, [](net::Comm& c) {
    int peer = c.rank() ^ 1;  // 0<->1, 2<->3
    // Buffered sends: both sides send first, then receive.
    c.send(peer, 5, c.rank() * 100);
    EXPECT_EQ(c.recv<int>(peer, 5), peer * 100);
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(NetExt, AllgatherGivesEveryoneEverything) {
  auto res = net::Cluster::run(5, [](net::Comm& c) {
    auto all = c.allgather(std::string(1, static_cast<char>('a' + c.rank())));
    ASSERT_EQ(all.size(), 5u);
    for (int r = 0; r < 5; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)],
                std::string(1, static_cast<char>('a' + r)));
    }
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(NetExt, CollectivesComposeInSequence) {
  // barrier / allgather / allreduce / pairwise swap back to back, all ranks.
  auto res = net::Cluster::run(4, [](net::Comm& c) {
    c.barrier();
    auto all = c.allgather(c.rank());
    int total = c.allreduce(c.rank(), [](int a, int b) { return a + b; });
    EXPECT_EQ(total, 6);
    EXPECT_EQ(static_cast<int>(all.size()), 4);
    c.send(c.rank() ^ 1, 2, total + c.rank());
    EXPECT_EQ(c.recv<int>(c.rank() ^ 1, 2), total + (c.rank() ^ 1));
    c.barrier();
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(PoolStats, CountsExecutedTasks) {
  runtime::ThreadPool pool(2);
  runtime::TaskGroup g;
  for (int i = 0; i < 64; ++i) {
    pool.submit(g, [] {});
  }
  pool.wait(g);
  auto st = pool.stats();
  EXPECT_EQ(st.tasks_executed, 64);
  // All submissions came from this external thread.
  EXPECT_EQ(st.tasks_injected, 64);
}

TEST(PoolStats, ParallelForGeneratesInternalTasks) {
  runtime::ThreadPool pool(3);
  std::atomic<std::int64_t> acc{0};
  runtime::parallel_for(pool, 0, 10000, 100,
                        [&](runtime::index_t a, runtime::index_t b) {
                          acc.fetch_add(b - a);
                        });
  EXPECT_EQ(acc.load(), 10000);
  auto st = pool.stats();
  EXPECT_GT(st.tasks_executed, 10);  // recursive splits spawned tasks
}

TEST(PoolStats, StealsAreCountedNotRequired) {
  runtime::ThreadPool pool(2);
  runtime::TaskGroup g;
  for (int i = 0; i < 200; ++i) {
    pool.submit(g, [] {
      volatile int x = 0;
      for (int j = 0; j < 100; ++j) x = x + j;
    });
  }
  pool.wait(g);
  auto st = pool.stats();
  EXPECT_GE(st.tasks_stolen, 0);
  EXPECT_EQ(st.tasks_executed, 200);
}

}  // namespace
}  // namespace triolet
