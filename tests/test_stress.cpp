// Stress and failure-injection tests: heavier concurrency on the pool and
// deque, many-rank clusters, repeated cluster lifecycles, abort storms,
// split() sub-communicators, and large serialization round trips.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "core/triolet.hpp"
#include "dist/skeletons.hpp"
#include "net/cluster.hpp"
#include "runtime/parallel.hpp"
#include "support/rng.hpp"

namespace triolet {
namespace {

TEST(Stress, PoolSurvivesManySmallGroups) {
  runtime::ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  for (int round = 0; round < 200; ++round) {
    runtime::TaskGroup g;
    for (int i = 0; i < 20; ++i) {
      pool.submit(g, [&] { total.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait(g);
  }
  EXPECT_EQ(total.load(), 200 * 20);
}

TEST(Stress, DeeplyNestedParallelForDoesNotDeadlock) {
  runtime::ThreadPool pool(2);
  std::atomic<std::int64_t> acc{0};
  runtime::parallel_for(pool, 0, 8, 1, [&](runtime::index_t, runtime::index_t) {
    runtime::parallel_for(pool, 0, 8, 1,
                          [&](runtime::index_t, runtime::index_t) {
                            runtime::parallel_for(
                                pool, 0, 8, 1,
                                [&](runtime::index_t a, runtime::index_t b) {
                                  acc.fetch_add(b - a);
                                });
                          });
  });
  EXPECT_EQ(acc.load(), 8 * 8 * 8);
}

TEST(Stress, ConcurrentIndependentTaskGroups) {
  runtime::ThreadPool pool(4);
  std::atomic<int> done{0};
  runtime::TaskGroup outer;
  for (int g = 0; g < 8; ++g) {
    pool.submit(outer, [&] {
      runtime::ThreadPool& p = runtime::current_pool();
      auto r = runtime::parallel_reduce(
          p, 0, 5000, 0, std::int64_t{0},
          [](runtime::index_t a, runtime::index_t b, std::int64_t acc) {
            for (runtime::index_t i = a; i < b; ++i) acc += i;
            return acc;
          },
          [](std::int64_t x, std::int64_t y) { return x + y; });
      if (r == 5000LL * 4999 / 2) done.fetch_add(1);
    });
  }
  pool.wait(outer);
  EXPECT_EQ(done.load(), 8);
}

TEST(Stress, RepeatedClusterLifecycles) {
  for (int round = 0; round < 50; ++round) {
    auto res = net::Cluster::run(3, [&](net::Comm& c) {
      int total = c.allreduce(round + c.rank(), [](int a, int b) { return a + b; });
      EXPECT_EQ(total, 3 * round + 3);
    });
    ASSERT_TRUE(res.ok) << res.error;
  }
}

TEST(Stress, SixteenRankAllToAllExchange) {
  auto res = net::Cluster::run(16, [](net::Comm& c) {
    // Everyone sends to everyone, then receives from everyone.
    for (int r = 0; r < c.size(); ++r) {
      if (r != c.rank()) c.send(r, 7, c.rank() * 1000 + r);
    }
    std::int64_t acc = 0;
    for (int r = 0; r < c.size(); ++r) {
      if (r != c.rank()) acc += c.recv<int>(r, 7);
    }
    std::int64_t expect = 0;
    for (int r = 0; r < c.size(); ++r) {
      if (r != c.rank()) expect += r * 1000 + c.rank();
    }
    EXPECT_EQ(acc, expect);
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Stress, AbortStormLeavesNoHangs) {
  // Different ranks fail at different times while others are blocked.
  for (int failing = 0; failing < 4; ++failing) {
    auto res = net::Cluster::run(4, [&](net::Comm& c) {
      if (c.rank() == failing) {
        throw std::runtime_error("injected failure");
      }
      // Everyone else blocks on a message that never comes.
      (void)c.recv<int>(failing, 99);
    });
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.error, "injected failure");
  }
}

TEST(Stress, SplitGroupsActIndependently) {
  auto res = net::Cluster::run(8, [](net::Comm& c) {
    // Two-level via sub-communicators: 2 "nodes" of 4 ranks each.
    auto group = c.split(c.rank() / 4);
    EXPECT_EQ(group.size(), 4);
    // Group-local reduce.
    int local = group.reduce(c.rank(), [](int a, int b) { return a + b; });
    if (group.rank() == 0) {
      int expect = c.rank() < 4 ? (0 + 1 + 2 + 3) : (4 + 5 + 6 + 7);
      EXPECT_EQ(local, expect);
    }
    // Group-local broadcast of the leader's result.
    group.broadcast(local);
    int expect = c.rank() < 4 ? 6 : 22;
    EXPECT_EQ(local, expect);
    // Leaders combine across groups through the world communicator.
    if (group.rank() == 0) {
      if (c.rank() == 0) {
        int world_total = local + c.recv<int>(4, 11);
        EXPECT_EQ(world_total, 28);
      } else {
        c.send(0, 11, local);
      }
    }
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(Stress, SplitSingletonGroups) {
  auto res = net::Cluster::run(3, [](net::Comm& c) {
    auto g = c.split(c.rank());  // every rank its own color
    EXPECT_EQ(g.size(), 1);
    EXPECT_EQ(g.rank(), 0);
    EXPECT_EQ(g.reduce(5, [](int a, int b) { return a + b; }), 5);
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(StressDeath, CorruptedPayloadIsDetectedAtReceive) {
  // Bypass Comm::send to inject a payload whose checksum does not match:
  // the receiving side must abort rather than deliver corrupt task data.
  EXPECT_DEATH(
      {
        net::ClusterState state(1, 0);
        net::Message m;
        m.src = 0;
        m.tag = 1;
        m.payload = serial::to_bytes(42);
        m.checksum = 0xDEADBEEF;  // wrong on purpose
        state.transport.inject(0, std::move(m));
        net::Comm comm(0, &state);
        (void)comm.recv<int>(net::kAnySource, 1);
      },
      "checksum");
}

TEST(Stress, LargeSerializationRoundTrip) {
  Xoshiro256 rng(321);
  std::vector<std::vector<double>> blob(100);
  for (auto& row : blob) {
    row.resize(rng.below(5000));
    for (auto& v : row) v = rng.uniform();
  }
  auto back = serial::from_bytes<std::vector<std::vector<double>>>(
      serial::to_bytes(blob));
  EXPECT_EQ(back, blob);
}

TEST(Stress, DistSumUnderRepeatedRuns) {
  Array1<double> xs(5000);
  for (core::index_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<double>(i % 17);
  }
  double expect = core::sum(core::from_array(xs));
  for (int round = 0; round < 10; ++round) {
    double got = -1;
    auto res = net::Cluster::run(4, [&](net::Comm& c) {
      dist::NodeRuntime node(2);
      double r = dist::sum(c, [&] { return core::par(core::from_array(xs)); });
      if (c.rank() == 0) got = r;
    });
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_DOUBLE_EQ(got, expect) << "round " << round;
  }
}

TEST(Stress, HugeFanoutConcatMapCountsExactly) {
  // ~1.6M inner elements through the nested iterator machinery.
  const core::index_t n = 1800;
  auto it = core::concat_map(core::range(0, n), [n](core::index_t i) {
    return core::range(0, i % 1800);
  });
  core::index_t expect = 0;
  for (core::index_t i = 0; i < n; ++i) expect += i % 1800;
  EXPECT_EQ(core::count(core::localpar(it)), expect);
}

}  // namespace
}  // namespace triolet
