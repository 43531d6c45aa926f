// Tests for the two-level distributed skeletons: slicing + serialization +
// per-node threading end to end on real SPMD rank threads, results compared
// against sequential execution on the same inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>

#include "core/triolet.hpp"
#include "dist/skeletons.hpp"
#include "net/cluster.hpp"
#include "support/rng.hpp"

namespace triolet::dist {
namespace {

using core::from_array;
using core::index_t;
using core::map;
using core::Seq;
using core::zip;

Array1<double> random_array(index_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Array1<double> a(n);
  for (index_t i = 0; i < n; ++i) a[i] = rng.uniform(-1.0, 1.0);
  return a;
}

/// Every policy the skeletons accept; nullopt is the option-less call.
const std::optional<sched::SchedulePolicy> kEveryPolicy[] = {
    std::nullopt, sched::SchedulePolicy::kStatic,
    sched::SchedulePolicy::kGuided, sched::SchedulePolicy::kDynamic,
    sched::SchedulePolicy::kAuto};

std::string policy_name(const std::optional<sched::SchedulePolicy>& policy) {
  return policy ? sched::to_string(*policy) : "no options";
}

/// Calls `skeleton()` for the option-less call, else `skeleton(opts)`.
template <typename Skeleton>
auto under(const std::optional<sched::SchedulePolicy>& policy,
           Skeleton&& skeleton) {
  return policy ? skeleton(sched::SchedOptions{*policy}) : skeleton();
}

TEST(DistSum, MatchesSequentialAcrossNodeCounts) {
  auto xs = random_array(10000, 1);
  double expect = 0;
  for (index_t i = 0; i < xs.size(); ++i) expect += xs[i] * xs[i];

  for (int nodes : {1, 2, 4, 8}) {
    double got = 0;
    auto res = net::Cluster::run(nodes, [&](net::Comm& comm) {
      NodeRuntime node(2);
      auto make = [&] {
        return map(from_array(xs), [](double x) { return x * x; });
      };
      double r = sum(comm, make);
      if (comm.rank() == 0) got = r;
    });
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_NEAR(got, expect, 1e-9 * std::abs(expect)) << nodes << " nodes";
  }
}

TEST(DistSum, DotProductAcrossNodes) {
  auto xs = random_array(5000, 2);
  auto ys = random_array(5000, 3);
  double expect = 0;
  for (index_t i = 0; i < xs.size(); ++i) expect += xs[i] * ys[i];

  double got = 0;
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    NodeRuntime node(2);
    auto make = [&] {
      return map(zip(from_array(xs), from_array(ys)),
                 [](const auto& p) { return p.first * p.second; });
    };
    double r = sum(comm, make);
    if (comm.rank() == 0) got = r;
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_NEAR(got, expect, 1e-9);
}

TEST(DistSum, SlicingSendsOnlySubarrays) {
  // With 4 nodes, each remote task should carry ~1/4 of the input, not all
  // of it: total task traffic stays close to one full copy of the data.
  const index_t n = 40000;
  auto xs = random_array(n, 4);
  const auto data_bytes = static_cast<std::int64_t>(n * sizeof(double));

  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    NodeRuntime node(1);
    auto make = [&] { return from_array(xs); };
    (void)sum(comm, make);
  });
  ASSERT_TRUE(res.ok) << res.error;
  // 3 remote chunks of n/4 elements each = 3/4 of the data, plus headers
  // and the tiny reduction results.
  EXPECT_LT(res.total_stats.bytes_sent, data_bytes * 3 / 4 + 4096);
  EXPECT_GT(res.total_stats.bytes_sent, data_bytes / 2);
}

TEST(DistCount, FilteredCountMatches) {
  auto xs = random_array(9999, 5);
  index_t expect = 0;
  for (index_t i = 0; i < xs.size(); ++i) expect += (xs[i] > 0);

  index_t got = -1;
  auto res = net::Cluster::run(3, [&](net::Comm& comm) {
    NodeRuntime node(2);
    auto make = [&] {
      return core::filter(from_array(xs), [](double x) { return x > 0; });
    };
    index_t r = count(comm, make);
    if (comm.rank() == 0) got = r;
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(got, expect);
}

TEST(DistSum, UserTagsAroundASkeletonStayWithTheUser) {
  // Skeleton traffic travels in reserved tag bands. User messages on small
  // tags, posted in both directions before an option-less sum and received
  // after it, neither feed the sum nor get consumed by it.
  Array1<double> ones(1000, 1.0);
  double got = 0;
  std::vector<double> received(4, -1.0);
  auto res = net::Cluster::run(2, [&](net::Comm& comm) {
    NodeRuntime node(1);
    const int peer = 1 - comm.rank();
    for (int tag : {100, 101}) {
      comm.send(peer, tag, 1000.0 * comm.rank() + tag);
    }
    const double r = sum(comm, [&] { return from_array(ones); });
    if (comm.rank() == 0) got = r;
    for (int k = 0; k < 2; ++k) {
      received[static_cast<std::size_t>(2 * comm.rank() + k)] =
          comm.recv<double>(peer, 100 + k);
    }
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(got, 1000.0);
  EXPECT_EQ(received, (std::vector<double>{1100.0, 1101.0, 100.0, 101.0}));
}

TEST(DistReduce, DefaultMatchesCommReduceOverSplitBlocksBitwise) {
  // Mixed magnitudes expose any change of parenthesization in the low bits.
  // Without options, and with SchedOptions{}, a reduction is one threaded
  // partial per split_blocks block combined by Comm::reduce.
  Xoshiro256 rng(17);
  Array1<double> xs(5000);
  for (index_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-12.0, 12.0));
  }
  auto plus = [](double a, double b) { return a + b; };
  for (int nodes : {3, 5, 8}) {
    double bare = 0, with_opts = 0, want = 0;
    auto res = net::Cluster::run(nodes, [&](net::Comm& comm) {
      NodeRuntime node(2);
      auto make = [&] { return from_array(xs); };
      const double a = reduce(comm, make, 0.0, plus);
      const double b = reduce(comm, make, 0.0, plus, sched::SchedOptions{});
      const Seq mine = core::split_blocks(Seq{0, xs.size()}, nodes)
          [static_cast<std::size_t>(comm.rank())];
      const double part =
          core::reduce(core::localpar(from_array(xs).slice(mine)), 0.0, plus);
      const double c = comm.reduce(part, plus, 0);
      if (comm.rank() == 0) {
        bare = a;
        with_opts = b;
        want = c;
      }
    });
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(0, std::memcmp(&bare, &want, sizeof(double)))
        << nodes << " nodes: " << bare << " vs " << want;
    EXPECT_EQ(0, std::memcmp(&with_opts, &want, sizeof(double)))
        << nodes << " nodes, SchedOptions{}: " << with_opts << " vs " << want;
  }
}

TEST(DistReduce, NonTrivialCombineFoldsDeterministically) {
  auto xs = random_array(1000, 6);
  // max-reduction: identity is -inf.
  double expect = -1e300;
  for (index_t i = 0; i < xs.size(); ++i) expect = std::max(expect, xs[i]);

  double got = 0;
  auto res = net::Cluster::run(5, [&](net::Comm& comm) {
    NodeRuntime node(2);
    auto make = [&] { return from_array(xs); };
    double r = reduce(comm, make, -1e300,
                      [](double a, double b) { return std::max(a, b); });
    if (comm.rank() == 0) got = r;
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_DOUBLE_EQ(got, expect);
}

TEST(DistHistogram, MatchesSequential) {
  Xoshiro256 rng(7);
  Array1<index_t> bins(30000);
  for (index_t i = 0; i < bins.size(); ++i)
    bins[i] = static_cast<index_t>(rng.below(64));
  auto expect = core::histogram(64, from_array(bins));

  Array1<std::int64_t> got;
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    NodeRuntime node(2);
    auto make = [&] { return from_array(bins); };
    auto r = histogram(comm, 64, make);
    if (comm.rank() == 0) got = r;
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(got, expect);
}

TEST(DistFloatHistogram, MatchesSequentialWithinTolerance) {
  auto xs = random_array(20000, 8);
  auto make_iter = [&] {
    return map(from_array(xs), [](double x) {
      index_t cell = static_cast<index_t>((x + 1.0) * 8);
      return std::pair<index_t, double>(std::min<index_t>(cell, 15), x * x);
    });
  };
  auto expect = core::float_histogram<double>(16, make_iter());

  Array1<double> got;
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    NodeRuntime node(2);
    auto r = float_histogram<double>(comm, 16, make_iter);
    if (comm.rank() == 0) got = r;
  });
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(got.size(), 16);
  for (index_t b = 0; b < 16; ++b) {
    EXPECT_NEAR(got[b], expect[b], 1e-9 * std::max(1.0, expect[b]));
  }
}

TEST(DistBuildArray1, AssemblesFullArray) {
  const index_t n = 4321;
  Array1<std::int64_t> got;
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    NodeRuntime node(2);
    auto make = [&] {
      return map(core::range(0, n), [](index_t i) { return 3 * i + 1; });
    };
    auto r = build_array1(comm, make);
    if (comm.rank() == 0) got = r;
  });
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(got.size(), n);
  for (index_t i = 0; i < n; ++i) ASSERT_EQ(got[i], 3 * i + 1);
}

TEST(DistBuildArray2, BlockDecomposedMatmulMatchesReference) {
  // The paper's sgemm decomposition end to end: outerproduct slices row
  // bundles per block, nodes compute blocks, root assembles.
  const index_t n = 24, k = 10, m = 20;
  Xoshiro256 rng(9);
  Array2<double> a(n, k), b(k, m);
  for (index_t y = 0; y < n; ++y)
    for (index_t x = 0; x < k; ++x) a(y, x) = rng.uniform(-1, 1);
  for (index_t y = 0; y < k; ++y)
    for (index_t x = 0; x < m; ++x) b(y, x) = rng.uniform(-1, 1);
  Array2<double> bt = transpose(b);

  Array2<double> got;
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    NodeRuntime node(2);
    auto make = [&] {
      return map(core::outerproduct(core::rows(a), core::rows(bt)),
                 [](const auto& uv) {
                   double acc = 0;
                   for (std::size_t i = 0; i < uv.first.size(); ++i)
                     acc += uv.first[i] * uv.second[i];
                   return acc;
                 });
    };
    auto r = build_array2(comm, make);
    if (comm.rank() == 0) got = r;
  });
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(got.rows(), n);
  ASSERT_EQ(got.cols(), m);
  for (index_t y = 0; y < n; ++y) {
    for (index_t x = 0; x < m; ++x) {
      double ref = 0;
      for (index_t i = 0; i < k; ++i) ref += a(y, i) * b(i, x);
      ASSERT_NEAR(got(y, x), ref, 1e-12);
    }
  }
}

TEST(DistBuildArray2, OuterproductTrafficIsRowsNotFullMatrices) {
  // Each of 4 blocks needs n/2 rows of A and m/2 rows of BT: total task
  // traffic ~ 2x one copy of each matrix (vs 4x if everything were
  // broadcast). Verify the slicing keeps traffic near the lower bound.
  const index_t n = 64, k = 64, m = 64;
  Array2<double> a(n, k, 1.0), bt(m, k, 2.0);
  const auto matrix_bytes = static_cast<std::int64_t>(n * k * sizeof(double));

  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    NodeRuntime node(1);
    auto make = [&] {
      return map(core::outerproduct(core::rows(a), core::rows(bt)),
                 [](const auto& uv) { return uv.first[0] + uv.second[0]; });
    };
    (void)build_array2(comm, make);
  });
  ASSERT_TRUE(res.ok) << res.error;
  // 3 remote blocks get (n/2 + m/2) rows = 3 * matrix_bytes/2 of input +
  // ~1 matrix of result blocks coming back (3/4 of cells remote).
  EXPECT_LT(res.total_stats.bytes_sent,
            3 * matrix_bytes / 2 + matrix_bytes + 65536);
}

TEST(DistSum, ManyNodesWithTinyInputStillCorrect) {
  // More nodes than elements: some chunks are empty.
  Array1<double> xs(0, {1.0, 2.0, 3.0});
  double got = 0;
  auto res = net::Cluster::run(8, [&](net::Comm& comm) {
    NodeRuntime node(1);
    auto make = [&] { return from_array(xs); };
    double r = sum(comm, make);
    if (comm.rank() == 0) got = r;
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_DOUBLE_EQ(got, 6.0);
}

TEST(DistMinMaxAvg, MatchSequentialConsumers) {
  auto xs = random_array(4321, 77);
  double ref_min = xs[0], ref_max = xs[0], ref_sum = 0;
  for (index_t i = 0; i < xs.size(); ++i) {
    ref_min = std::min(ref_min, xs[i]);
    ref_max = std::max(ref_max, xs[i]);
    ref_sum += xs[i];
  }
  for (const auto& policy : kEveryPolicy) {
    double got_min = 0, got_max = 0, got_avg = 0;
    auto res = net::Cluster::run(4, [&](net::Comm& comm) {
      NodeRuntime node(2);
      auto make = [&] { return core::par(from_array(xs)); };
      double mn = under(policy, [&](auto... opts) {
        return minimum(comm, make, opts...);
      });
      double mx = under(policy, [&](auto... opts) {
        return maximum(comm, make, opts...);
      });
      double av = under(policy, [&](auto... opts) {
        return average(comm, make, opts...);
      });
      if (comm.rank() == 0) {
        got_min = mn;
        got_max = mx;
        got_avg = av;
      }
    });
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_DOUBLE_EQ(got_min, ref_min) << policy_name(policy);
    EXPECT_DOUBLE_EQ(got_max, ref_max) << policy_name(policy);
    EXPECT_NEAR(got_avg, ref_sum / static_cast<double>(xs.size()), 1e-12)
        << policy_name(policy);
  }
}

TEST(DistMinMaxAvg, MoreNodesThanElements) {
  Array1<double> xs(0, {3.0, 1.0});
  Array1<double> none(0);
  // The clusters below run threads, so a death test re-runs the binary.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const auto& policy : kEveryPolicy) {
    auto min_of = [&](const Array1<double>& a) {
      double got = 0;
      auto res = net::Cluster::run(6, [&](net::Comm& comm) {
        NodeRuntime node(1);
        auto make = [&] { return core::par(from_array(a)); };
        double r = under(policy, [&](auto... opts) {
          return minimum(comm, make, opts...);
        });
        if (comm.rank() == 0) got = r;
      });
      EXPECT_TRUE(res.ok) << res.error;
      return got;
    };
    EXPECT_DOUBLE_EQ(min_of(xs), 1.0) << policy_name(policy);
    // An empty iterator still fails on rank 0.
    EXPECT_DEATH(min_of(none), "minimum of an empty iterator")
        << policy_name(policy);
  }
}

// Parameterized: the full pipeline at several node counts and shapes.
class DistWidth : public ::testing::TestWithParam<int> {};

TEST_P(DistWidth, FilteredTriangularCountMatchesClosedForm) {
  const int nodes = GetParam();
  const index_t n = 60;
  index_t got = -1;
  auto res = net::Cluster::run(nodes, [&](net::Comm& comm) {
    NodeRuntime node(2);
    auto make = [&] {
      return core::concat_map(core::range(0, n), [n](index_t i) {
        return core::range(i + 1, n);
      });
    };
    index_t r = count(comm, make);
    if (comm.rank() == 0) got = r;
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(got, n * (n - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Nodes, DistWidth, ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace triolet::dist
