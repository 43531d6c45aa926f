// Tests for the tree-structured collectives: correctness at non-power-of-two
// widths, empty and multi-megabyte payloads, allreduce/allgather agreement
// across ranks, bitwise determinism of floating-point tree reductions, and
// logarithmic critical-path depth via the per-collective CommStats
// counters.

#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <numeric>

#include "net/cluster.hpp"
#include "support/rng.hpp"

namespace triolet::net {
namespace {

int ceil_log2(int p) {
  int d = 0;
  for (int reach = 1; reach < p; reach <<= 1) ++d;
  return d;
}

std::vector<double> random_doubles(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform() * 2.0 - 1.0;
  return v;
}

// Parameterized over non-power-of-two (and a few power-of-two) widths.
class TreeCollectives : public ::testing::TestWithParam<int> {};

TEST_P(TreeCollectives, BroadcastFromEveryRoot) {
  const int p = GetParam();
  auto res = Cluster::run(p, [&](Comm& c) {
    for (int root = 0; root < p; ++root) {
      std::vector<int> v;
      if (c.rank() == root) {
        v = {root, root + 1, root + 2};
      }
      c.broadcast(v, root);
      EXPECT_EQ(v, (std::vector<int>{root, root + 1, root + 2}));
    }
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST_P(TreeCollectives, GatherCollectsByRankFromEveryRoot) {
  const int p = GetParam();
  auto res = Cluster::run(p, [&](Comm& c) {
    for (int root = 0; root < p; ++root) {
      std::string mine(1, static_cast<char>('a' + c.rank()));
      auto all = c.gather(mine, root);
      if (c.rank() == root) {
        ASSERT_EQ(static_cast<int>(all.size()), p);
        for (int r = 0; r < p; ++r) {
          EXPECT_EQ(all[static_cast<std::size_t>(r)],
                    std::string(1, static_cast<char>('a' + r)));
        }
      } else {
        EXPECT_TRUE(all.empty());
      }
    }
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST_P(TreeCollectives, ScatterHandsOutPerRankItemsFromEveryRoot) {
  const int p = GetParam();
  auto res = Cluster::run(p, [&](Comm& c) {
    for (int root = 0; root < p; ++root) {
      std::vector<std::string> items;
      if (c.rank() == root) {
        for (int r = 0; r < p; ++r) {
          items.push_back("item-" + std::to_string(r));
        }
      }
      auto mine = c.scatter(items, root);
      EXPECT_EQ(mine, "item-" + std::to_string(c.rank()));
    }
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST_P(TreeCollectives, ReduceKeepsRankOrderForAssociativeOps) {
  const int p = GetParam();
  auto res = Cluster::run(p, [&](Comm& c) {
    std::string mine(1, static_cast<char>('A' + c.rank()));
    auto r = c.reduce(mine,
                      [](std::string a, std::string b) { return a + b; }, 0);
    if (c.rank() == 0) {
      std::string expect;
      for (int i = 0; i < p; ++i) expect += static_cast<char>('A' + i);
      EXPECT_EQ(r, expect);
    } else {
      EXPECT_TRUE(r.empty());
    }
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST_P(TreeCollectives, AllreduceAgreesOnEveryRank) {
  const int p = GetParam();
  std::mutex mu;
  std::vector<std::int64_t> results;
  auto res = Cluster::run(p, [&](Comm& c) {
    auto total = c.allreduce(
        static_cast<std::int64_t>((c.rank() + 1) * (c.rank() + 1)),
        [](std::int64_t a, std::int64_t b) { return a + b; });
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(total);
  });
  EXPECT_TRUE(res.ok) << res.error;
  std::int64_t expect = 0;
  for (int r = 1; r <= p; ++r) expect += static_cast<std::int64_t>(r) * r;
  ASSERT_EQ(static_cast<int>(results.size()), p);
  for (auto got : results) EXPECT_EQ(got, expect);
}

TEST_P(TreeCollectives, AllgatherDeliversWorldOrderEverywhere) {
  const int p = GetParam();
  auto res = Cluster::run(p, [&](Comm& c) {
    auto all = c.allgather(c.rank() * 10);
    ASSERT_EQ(static_cast<int>(all.size()), p);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 10);
    }
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST_P(TreeCollectives, BarrierSynchronizesPhases) {
  const int p = GetParam();
  std::atomic<int> counter{0};
  auto res = Cluster::run(p, [&](Comm& c) {
    for (int phase = 1; phase <= 3; ++phase) {
      counter.fetch_add(1);
      c.barrier();
      EXPECT_GE(counter.load(), phase * p);
      c.barrier();
    }
  });
  EXPECT_TRUE(res.ok) << res.error;
}

INSTANTIATE_TEST_SUITE_P(Widths, TreeCollectives,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 16));

TEST(TreeCollectives, EmptyPayloadsRoundTrip) {
  auto res = Cluster::run(5, [](Comm& c) {
    // Broadcast of an empty vector: zero-byte element payload.
    std::vector<double> v;
    if (c.rank() == 0) v = {};
    c.broadcast(v, 0);
    EXPECT_TRUE(v.empty());
    // Gather / reduce of empty strings.
    auto all = c.gather(std::string{}, 0);
    if (c.rank() == 0) {
      ASSERT_EQ(all.size(), 5u);
      for (const auto& s : all) EXPECT_TRUE(s.empty());
    }
    auto cat = c.reduce(std::string{},
                        [](std::string a, std::string b) { return a + b; }, 0);
    EXPECT_TRUE(cat.empty());
    // Allreduce over empty arrays stays empty.
    auto sum = c.allreduce(std::vector<int>{}, [](std::vector<int> a,
                                                  const std::vector<int>& b) {
      EXPECT_EQ(a.size(), b.size());
      return a;
    });
    EXPECT_TRUE(sum.empty());
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(TreeCollectives, MultiMegabyteBroadcastAndReduce) {
  // 4 MB broadcast payload; 1 MB per-rank reduce contributions.
  const std::size_t bcast_n = (4u << 20) / sizeof(double);
  const std::size_t red_n = (1u << 20) / sizeof(double);
  auto big = random_doubles(bcast_n, 42);
  auto res = Cluster::run(5, [&](Comm& c) {
    std::vector<double> v;
    if (c.rank() == 0) v = big;
    c.broadcast(v, 0);
    ASSERT_EQ(v.size(), bcast_n);
    EXPECT_EQ(std::memcmp(v.data(), big.data(), bcast_n * sizeof(double)), 0);

    std::vector<double> mine(red_n, static_cast<double>(c.rank() + 1));
    auto total = c.reduce(
        mine,
        [](std::vector<double> a, const std::vector<double>& b) {
          for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
          return a;
        },
        0);
    if (c.rank() == 0) {
      ASSERT_EQ(total.size(), red_n);
      // 1+2+3+4+5 = 15, exact in floating point.
      EXPECT_DOUBLE_EQ(total.front(), 15.0);
      EXPECT_DOUBLE_EQ(total.back(), 15.0);
    }
  });
  EXPECT_TRUE(res.ok) << res.error;
}

// Runs one float allreduce at width p and returns each rank's result bits.
std::vector<std::uint64_t> float_allreduce_bits(int p, std::uint64_t seed) {
  auto contribs = random_doubles(static_cast<std::size_t>(p), seed);
  std::vector<std::uint64_t> bits(static_cast<std::size_t>(p));
  auto res = Cluster::run(p, [&](Comm& c) {
    double total = c.allreduce(contribs[static_cast<std::size_t>(c.rank())],
                               [](double a, double b) { return a + b; });
    std::uint64_t u;
    std::memcpy(&u, &total, sizeof u);
    bits[static_cast<std::size_t>(c.rank())] = u;
  });
  EXPECT_TRUE(res.ok) << res.error;
  return bits;
}

TEST(TreeCollectives, FloatAllreduceBitwiseIdenticalAcrossRanksAndRuns) {
  for (int p : {3, 5, 7, 8}) {
    auto run1 = float_allreduce_bits(p, 7);
    auto run2 = float_allreduce_bits(p, 7);
    // Identical across ranks within one run (fixed combine tree on every
    // rank)...
    for (auto b : run1) EXPECT_EQ(b, run1.front()) << "p=" << p;
    // ...and bitwise identical run-to-run (deterministic tree shape).
    EXPECT_EQ(run1, run2) << "p=" << p;
  }
}

TEST(TreeCollectives, FloatTreeReduceBitwiseDeterministicRunToRun) {
  const int p = 7;
  auto contribs = random_doubles(static_cast<std::size_t>(p), 99);
  auto run_once = [&] {
    double got = 0;
    auto res = Cluster::run(p, [&](Comm& c) {
      double r = c.reduce(contribs[static_cast<std::size_t>(c.rank())],
                          [](double a, double b) { return a + b; }, 0);
      if (c.rank() == 0) got = r;
    });
    EXPECT_TRUE(res.ok) << res.error;
    std::uint64_t u;
    std::memcpy(&u, &got, sizeof u);
    return u;
  };
  EXPECT_EQ(run_once(), run_once());
}

// Collects every rank's CommStats after `body` runs.
std::vector<CommStats> per_rank_stats(int p,
                                      const std::function<void(Comm&)>& body) {
  std::vector<CommStats> stats(static_cast<std::size_t>(p));
  auto res = Cluster::run(p, [&](Comm& c) {
    body(c);
    stats[static_cast<std::size_t>(c.rank())] = c.snapshot_stats();
  });
  EXPECT_TRUE(res.ok) << res.error;
  return stats;
}

TEST(CollectiveStats, BroadcastDepthIsCeilLog2P) {
  for (int p : {4, 7, 16, 32}) {
    auto stats = per_rank_stats(p, [](Comm& c) {
      std::vector<double> v;
      if (c.rank() == 0) v = {1.0, 2.0, 3.0};
      c.broadcast(v, 0);
    });
    std::int64_t max_sent = 0;
    std::int64_t total_recv = 0;
    for (const auto& s : stats) {
      max_sent = std::max(max_sent,
                          s.collective(Collective::kBroadcast).messages_sent);
      total_recv += s.collective(Collective::kBroadcast).messages_received;
      EXPECT_LE(s.collective(Collective::kBroadcast).messages_received, 1);
    }
    // The root (busiest sender) forwards exactly ceil(log2 P) times: the
    // tree's critical-path depth. A linear loop would send P-1.
    EXPECT_EQ(max_sent, ceil_log2(p)) << "p=" << p;
    EXPECT_EQ(total_recv, p - 1) << "p=" << p;
    EXPECT_EQ(stats[0].collective(Collective::kBroadcast).calls, 1);
  }
}

TEST(CollectiveStats, ReduceRootTrafficIsLogarithmic) {
  const int p = 16;
  const std::size_t n = 4096;  // 32 KB of doubles per partial
  auto tree = per_rank_stats(p, [&](Comm& c) {
    std::vector<double> mine(n, static_cast<double>(c.rank()));
    (void)c.reduce(
        mine,
        [](std::vector<double> a, const std::vector<double>& b) {
          for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
          return a;
        },
        0);
  });
  const auto& tr = tree[0].collective(Collective::kReduce);
  // Tree reduce: the root merges ceil(log2 16) = 4 partials.
  EXPECT_EQ(tr.messages_received, ceil_log2(p));
  // Every rank sends at most one partial: depth of any send path is 1, and
  // the longest receive chain is the root's ceil(log2 P).
  for (const auto& s : tree) {
    EXPECT_LE(s.collective(Collective::kReduce).messages_sent, 1);
  }
  // Root bytes: those 4 partials of 32 KiB, each with a small length
  // header. A linear fold at the root would receive all P-1 = 15 (480 KiB).
  EXPECT_GE(tr.bytes_received, 4 * 32768);
  EXPECT_LE(tr.bytes_received, 4 * (32768 + 64));
}

TEST(CollectiveStats, PerCollectiveCallCountsAndAggregation) {
  auto res = Cluster::run(4, [](Comm& c) {
    c.barrier();
    int v = c.rank();
    c.broadcast(v, 0);
    (void)c.allreduce(v, [](int a, int b) { return a + b; });
    (void)c.gather(v, 0);
  });
  ASSERT_TRUE(res.ok) << res.error;
  const auto& agg = res.total_stats;
  EXPECT_EQ(agg.collective(Collective::kBarrier).calls, 4);
  EXPECT_EQ(agg.collective(Collective::kBroadcast).calls, 4);
  EXPECT_EQ(agg.collective(Collective::kAllreduce).calls, 4);
  EXPECT_EQ(agg.collective(Collective::kGather).calls, 4);
  EXPECT_EQ(agg.collective(Collective::kScatter).calls, 0);
  // Collective traffic is also counted in the global totals.
  std::int64_t coll_sent = 0;
  for (const auto& cs : agg.collectives) coll_sent += cs.messages_sent;
  EXPECT_EQ(coll_sent, agg.messages_sent);
}

}  // namespace
}  // namespace triolet::net
