// Tests for the demand-driven distributed scheduler (src/sched/): the
// request/grant protocol end to end on real SPMD rank threads, every
// SchedulePolicy compared against sequential execution and against the
// other policies, plus the CommStats attribution of control traffic.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/triolet.hpp"
#include "dist/segmented.hpp"
#include "dist/skeletons.hpp"
#include "net/cluster.hpp"
#include "net/tags.hpp"
#include "support/rng.hpp"

namespace triolet::sched {
namespace {

using core::from_array;
using core::index_t;
using core::map;
using core::Seq;
using dist::NodeRuntime;

const SchedulePolicy kAllPolicies[] = {
    SchedulePolicy::kStatic, SchedulePolicy::kGuided, SchedulePolicy::kDynamic};

Array1<double> random_array(index_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Array1<double> a(n);
  for (index_t i = 0; i < n; ++i) a[i] = rng.uniform(-1.0, 1.0);
  return a;
}

// -- policy grammar -----------------------------------------------------------

TEST(SchedPolicy, ResolveGrainAndAtomCount) {
  // Explicit grain wins; auto grain is extent / (8 * ranks) floored at 1.
  EXPECT_EQ(resolve_grain(1000, 4, 10), 10);
  EXPECT_EQ(resolve_grain(1000, 4, 0), 1000 / 32);
  EXPECT_EQ(resolve_grain(5, 8, 0), 1);   // small extent floors at 1
  EXPECT_EQ(resolve_grain(0, 8, 0), 1);   // empty extent still legal
  EXPECT_EQ(atom_count(0, 1), 0);
  EXPECT_EQ(atom_count(10, 3), 4);        // ceil(10/3)
  EXPECT_EQ(atom_count(9, 3), 3);
}

TEST(SchedPolicy, GuidedRunDecaysGeometricallyToFloor) {
  // Starting from R atoms on P ranks, successive grants shrink by about
  // (1 - 1/(2P)) and reach the 1-atom floor without ever stalling.
  index_t remaining = 1000;
  const int ranks = 4;
  index_t prev = remaining;
  int grants = 0;
  while (remaining > 0) {
    index_t n = guided_run_atoms(remaining, ranks);
    ASSERT_GE(n, 1);
    ASSERT_LE(n, prev);
    remaining -= std::min(remaining, n);
    prev = n;
    ++grants;
    ASSERT_LT(grants, 10000) << "guided schedule failed to terminate";
  }
  EXPECT_GT(grants, ranks);  // strictly finer than one chunk per rank
}

// -- correctness across policies and widths -----------------------------------

TEST(SchedSum, MatchesSequentialAcrossPoliciesAndWidths) {
  auto xs = random_array(10000, 1);
  double expect = 0;
  for (index_t i = 0; i < xs.size(); ++i) expect += xs[i] * xs[i];

  for (int nodes : {1, 2, 4, 8}) {
    for (auto policy : kAllPolicies) {
      SchedOptions opts{policy};
      double got = 0;
      auto res = net::Cluster::run(nodes, [&](net::Comm& comm) {
        NodeRuntime node(2);
        auto make = [&] {
          return map(from_array(xs), [](double x) { return x * x; });
        };
        double r = dist::sum(comm, make, opts);
        if (comm.rank() == 0) got = r;
      });
      ASSERT_TRUE(res.ok) << res.error;
      EXPECT_NEAR(got, expect, 1e-9 * std::abs(expect))
          << nodes << " nodes, " << to_string(policy);
    }
  }
}

TEST(SchedReduce, OrderedCombineIsBitwiseIdenticalAcrossPolicies) {
  // Floating-point sums of wildly mixed magnitudes: any change in the
  // combine parenthesization shows up in the low bits. The ordered path
  // must produce the same bits under every policy because atoms and their
  // fold order are policy-independent.
  Xoshiro256 rng(7);
  Array1<double> xs(4096);
  for (index_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-12.0, 12.0));
  }

  std::vector<double> results;
  for (auto policy : kAllPolicies) {
    SchedOptions opts{policy, CombineMode::kOrdered, 64};
    double got = 0;
    auto res = net::Cluster::run(4, [&](net::Comm& comm) {
      NodeRuntime node(2);
      auto make = [&] { return from_array(xs); };
      double r = dist::reduce(comm, make, 0.0,
                              [](double a, double b) { return a + b; }, opts);
      if (comm.rank() == 0) got = r;
    });
    ASSERT_TRUE(res.ok) << res.error;
    results.push_back(got);
  }
  // Bitwise, not approximate: memcmp the representations.
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&results[0], &results[i], sizeof(double)))
        << to_string(kAllPolicies[i]) << " diverged from static: "
        << results[0] << " vs " << results[i];
  }
}

TEST(SchedReduce, OrderedCombineIsBitwiseIdenticalWithPrefetchOnAndOff) {
  // Grant prefetch changes *when* a worker requests its next run (and thus
  // possibly which rank executes which atom), but never the atom
  // decomposition or the ordered fold, so the kOrdered result must be the
  // same bits with prefetch on and off, for every demand-driven policy.
  Xoshiro256 rng(23);
  Array1<double> xs(4096);
  for (index_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-12.0, 12.0));
  }

  for (auto policy : {SchedulePolicy::kGuided, SchedulePolicy::kDynamic}) {
    std::vector<double> results;
    for (bool prefetch : {true, false}) {
      SchedOptions opts{policy, CombineMode::kOrdered, 64, prefetch};
      double got = 0;
      auto res = net::Cluster::run(4, [&](net::Comm& comm) {
        NodeRuntime node(2);
        auto make = [&] { return from_array(xs); };
        double r = dist::reduce(comm, make, 0.0,
                                [](double a, double b) { return a + b; }, opts);
        if (comm.rank() == 0) got = r;
      });
      ASSERT_TRUE(res.ok) << res.error;
      results.push_back(got);
    }
    EXPECT_EQ(0, std::memcmp(&results[0], &results[1], sizeof(double)))
        << to_string(policy) << ": prefetch on " << results[0]
        << " vs off " << results[1];
  }
}

TEST(SchedReduce, OrderedCombineIsReproducibleRunToRun) {
  auto xs = random_array(2000, 11);
  SchedOptions opts{SchedulePolicy::kDynamic, CombineMode::kOrdered, 16};
  double first = 0;
  for (int run = 0; run < 3; ++run) {
    double got = 0;
    auto res = net::Cluster::run(4, [&](net::Comm& comm) {
      NodeRuntime node(2);
      auto make = [&] { return from_array(xs); };
      double r = dist::reduce(comm, make, 0.0,
                              [](double a, double b) { return a + b; }, opts);
      if (comm.rank() == 0) got = r;
    });
    ASSERT_TRUE(res.ok) << res.error;
    if (run == 0) {
      first = got;
    } else {
      EXPECT_EQ(0, std::memcmp(&first, &got, sizeof(double)));
    }
  }
}

TEST(SchedEpoch, TagRotationStaysInBandAndCyclesDisjointPairs) {
  // One (request, grant) pair per epoch, every pair inside the sched band,
  // and no overlap between consecutive epochs' pairs until the rotation
  // wraps (workers can only run one epoch ahead, so a wrap can never alias).
  for (int e = 0; e < 3 * net::kSchedEpochTags; ++e) {
    const int req = net::sched_request_tag(e);
    const int grant = net::sched_grant_tag(e);
    ASSERT_GE(req, net::kTagSchedBand);
    ASSERT_LT(grant, net::kTagSchedBandEnd);
    ASSERT_EQ(grant, req + 1);
    ASSERT_EQ(req, net::sched_request_tag(e + net::kSchedEpochTags));
    ASSERT_NE(req, net::sched_request_tag(e + 1));
  }
  EXPECT_EQ(net::kTagSchedRequest, net::sched_request_tag(0));
  EXPECT_EQ(net::kTagSchedGrant, net::sched_grant_tag(0));
}

TEST(SchedEpoch, BackToBackRoundsDoNotCrossTalk) {
  // Regression: without epoch-rotated protocol tags, a worker that finishes
  // round r early posts its round r+1 request while the root is still
  // draining round r's final requests; the root answered it with a round-r
  // `done`, dismissing the worker from a round that never started and
  // starving a slow round-r worker forever (deadlock in the next gather).
  // Many short back-to-back rounds on few atoms make the race window wide;
  // this test hung within a few iterations on a single-core host before the
  // fix.
  const auto xs = random_array(4096, 99);
  const double expect = [&] {
    double s = 0;
    for (index_t i = 0; i < xs.size(); ++i) s += xs[i];
    return s;
  }();
  for (int iter = 0; iter < 6; ++iter) {
    SchedOptions opts{SchedulePolicy::kGuided, CombineMode::kOrdered, 64};
    std::vector<double> rounds;
    auto res = net::Cluster::run(4, [&](net::Comm& comm) {
      NodeRuntime node(1);
      auto make = [&] { return from_array(xs); };
      for (int r = 0; r < 4; ++r) {
        double v = dist::reduce(comm, make, 0.0,
                                [](double a, double b) { return a + b; }, opts);
        if (comm.rank() == 0) rounds.push_back(v);
      }
    });
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(rounds.size(), 4u);
    for (double v : rounds) {
      // kOrdered: every round folds the same atoms in the same order, so
      // the rounds must agree bitwise — a cross-round grant would show up
      // as a missing or duplicated atom.
      EXPECT_EQ(0, std::memcmp(&rounds[0], &v, sizeof(double)));
      EXPECT_NEAR(v, expect, 1e-9 * xs.size());
    }
  }
}

TEST(SchedCount, FilteredCountUnderEveryPolicy) {
  // filter() turns the flat indexer into an indexer of steppers — the
  // irregular shape the demand-driven scheduler exists for.
  auto xs = random_array(9999, 5);
  index_t expect = 0;
  for (index_t i = 0; i < xs.size(); ++i) expect += (xs[i] > 0);

  for (auto policy : kAllPolicies) {
    SchedOptions opts{policy};
    index_t got = -1;
    auto res = net::Cluster::run(3, [&](net::Comm& comm) {
      NodeRuntime node(2);
      auto make = [&] {
        return core::filter(from_array(xs), [](double x) { return x > 0; });
      };
      index_t r = dist::count(comm, make, opts);
      if (comm.rank() == 0) got = r;
    });
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(got, expect) << to_string(policy);
  }
}

TEST(SchedHistogram, IntegerHistogramIdenticalAcrossPolicies) {
  const index_t nbins = 32;
  Xoshiro256 rng(9);
  Array1<index_t> bins(5000);
  std::vector<std::int64_t> expect(static_cast<std::size_t>(nbins), 0);
  for (index_t i = 0; i < bins.size(); ++i) {
    bins[i] = static_cast<index_t>(rng.next() % nbins);
    expect[static_cast<std::size_t>(bins[i])] += 1;
  }

  for (auto policy : kAllPolicies) {
    SchedOptions opts{policy};
    Array1<std::int64_t> got;
    auto res = net::Cluster::run(4, [&](net::Comm& comm) {
      NodeRuntime node(2);
      auto make = [&] { return from_array(bins); };
      auto r = dist::histogram(comm, nbins, make, opts);
      if (comm.rank() == 0) got = r;
    });
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(got.size(), nbins) << to_string(policy);
    for (index_t b = 0; b < nbins; ++b) {
      EXPECT_EQ(got[b], expect[static_cast<std::size_t>(b)])
          << to_string(policy) << " bin " << b;
    }
  }
}

TEST(SchedFloatHistogram, MatchesStaticWithinRounding) {
  const index_t ncells = 16;
  Xoshiro256 rng(13);
  Array1<std::pair<index_t, double>> hits(3000);
  std::vector<double> expect(static_cast<std::size_t>(ncells), 0.0);
  for (index_t i = 0; i < hits.size(); ++i) {
    index_t cell = static_cast<index_t>(rng.next() % ncells);
    double w = rng.uniform(0.0, 1.0);
    hits[i] = {cell, w};
    expect[static_cast<std::size_t>(cell)] += w;
  }

  for (auto policy : kAllPolicies) {
    SchedOptions opts{policy};
    Array1<double> got;
    auto res = net::Cluster::run(4, [&](net::Comm& comm) {
      NodeRuntime node(2);
      auto make = [&] { return from_array(hits); };
      auto r = dist::float_histogram<double>(comm, ncells, make, opts);
      if (comm.rank() == 0) got = r;
    });
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(got.size(), ncells);
    for (index_t c = 0; c < ncells; ++c) {
      EXPECT_NEAR(got[c], expect[static_cast<std::size_t>(c)], 1e-9)
          << to_string(policy) << " cell " << c;
    }
  }
}

TEST(SchedBuildArray1, AssemblesIdenticalArrayUnderEveryPolicy) {
  auto xs = random_array(7777, 17);
  for (auto policy : kAllPolicies) {
    SchedOptions opts{policy};
    Array1<double> got;
    auto res = net::Cluster::run(4, [&](net::Comm& comm) {
      NodeRuntime node(2);
      auto make = [&] {
        return map(from_array(xs), [](double x) { return 2.0 * x + 1.0; });
      };
      auto r = dist::build_array1(comm, make, opts);
      if (comm.rank() == 0) got = std::move(r);
    });
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(got.size(), xs.size()) << to_string(policy);
    for (index_t i = got.lo(); i < got.hi(); ++i) {
      ASSERT_EQ(got[i], 2.0 * xs[i] + 1.0) << to_string(policy) << " @" << i;
    }
  }
}

TEST(SchedBuildArray2, RowBandsAssembleTheFullMatrix) {
  const index_t h = 37, w = 23;
  for (auto policy : kAllPolicies) {
    SchedOptions opts{policy, CombineMode::kTree, 3};
    Array2<index_t> got;
    auto res = net::Cluster::run(4, [&](net::Comm& comm) {
      NodeRuntime node(2);
      auto make = [&] {
        return map(core::array_range(h, w),
                   [](core::Index2 i) { return i.y * 1000 + i.x; });
      };
      auto r = dist::build_array2(comm, make, opts);
      if (comm.rank() == 0) got = std::move(r);
    });
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(got.rows(), h) << to_string(policy);
    ASSERT_EQ(got.cols(), w) << to_string(policy);
    for (index_t y = 0; y < h; ++y) {
      for (index_t x = 0; x < w; ++x) {
        ASSERT_EQ(got(y, x), y * 1000 + x)
            << to_string(policy) << " @(" << y << "," << x << ")";
      }
    }
  }
}

// -- stats attribution ---------------------------------------------------------

TEST(SchedStatsAttribution, StaticHasNoRequestsDynamicHasMany) {
  auto xs = random_array(4096, 21);
  const int nodes = 4;
  const index_t grain = 64;  // 64 atoms

  for (auto policy : kAllPolicies) {
    SchedOptions opts{policy, CombineMode::kTree, grain};
    auto res = net::Cluster::run(nodes, [&](net::Comm& comm) {
      NodeRuntime node(2);
      // Each atom must cost real time, otherwise the root races through
      // the whole queue before any worker's first request arrives and the
      // grant counters legitimately read zero.
      auto make = [&] {
        return map(from_array(xs), [](double x) {
          double v = x;
          for (int k = 0; k < 400; ++k) v += std::sin(v) * 1e-3;
          return v;
        });
      };
      (void)dist::sum(comm, make, opts);
    });
    ASSERT_TRUE(res.ok) << res.error;
    const net::SchedStats& s = res.total_stats.sched;

    // Every element ran exactly once, wherever it ran.
    EXPECT_EQ(s.items_executed, xs.size()) << to_string(policy);
    EXPECT_GT(s.chunks_executed, 0) << to_string(policy);

    if (policy == SchedulePolicy::kStatic) {
      EXPECT_EQ(s.requests_sent, 0);
      EXPECT_EQ(s.steal_waits, 0);
      EXPECT_EQ(s.grants_served, nodes - 1);  // one push per worker
    } else {
      // Each worker sends at least one work request plus the final request
      // answered with `done`; every request is matched by one response.
      EXPECT_GE(s.requests_sent, nodes - 1) << to_string(policy);
      EXPECT_EQ(s.steal_waits, s.requests_sent) << to_string(policy);
      EXPECT_GT(s.grants_served, 0) << to_string(policy);
      EXPECT_EQ(s.control_messages, 2 * s.requests_sent) << to_string(policy);
      EXPECT_GT(s.control_bytes, 0) << to_string(policy);
    }
    if (policy == SchedulePolicy::kDynamic) {
      // One grant per atom that workers ran: strictly more protocol
      // traffic than guided on the same problem.
      EXPECT_GE(s.requests_sent, s.grants_served);
      EXPECT_GT(s.grants_served, nodes - 1);
    }
  }
}

// -- the static split ---------------------------------------------------------

/// Sums the items the root passes to the fair-share gate.
class CountingGate final : public GrantGate {
 public:
  void before_grant(index_t items) override { items_ += items; }
  index_t items() const { return items_; }

 private:
  index_t items_ = 0;
};

/// Runs `make()` under kStatic `opts` on `p` ranks and returns the domain of
/// each rank's one on_chunk call. Checks on the way that every item counter
/// sums to the outer extent: items executed, items granted plus the root's
/// own, and the items the gate saw.
template <typename MakeIter>
auto static_domains(int p, SchedOptions opts, MakeIter make) {
  using D = std::remove_cvref_t<decltype(make().domain())>;
  const index_t extent = core::outer_extent(make().domain());
  std::vector<D> seen(static_cast<std::size_t>(p));
  std::vector<int> calls(static_cast<std::size_t>(p), 0);
  CountingGate gate;
  opts.gate = &gate;
  index_t root_items = 0;
  auto res = net::Cluster::run(p, [&](net::Comm& comm) {
    NodeRuntime node(1);
    const auto r = static_cast<std::size_t>(comm.rank());
    run_chunks(comm, make, opts,
               [&](const auto& run, index_t, index_t, index_t) {
                 seen[r] = run.domain();
                 calls[r] += 1;
               });
    if (comm.rank() == 0) root_items = comm.stats().sched.items_executed;
  });
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_EQ(calls, std::vector<int>(static_cast<std::size_t>(p), 1));
  const net::SchedStats& s = res.total_stats.sched;
  EXPECT_EQ(s.items_executed, extent);
  EXPECT_EQ(s.granted_items + root_items, extent);
  EXPECT_EQ(gate.items(), extent);
  return seen;
}

/// Rank r's atom band [natoms*r/p, natoms*(r+1)/p) of `dom` under `opts`.
template <typename D>
D atom_band(const D& dom, int p, int r, const SchedOptions& opts) {
  const index_t extent = core::outer_extent(dom);
  const index_t grain =
      resolve_grain(extent, p, opts.grain, core::outer_cost_cv(dom));
  const index_t natoms = atom_count(extent, grain);
  return core::outer_slice(dom, std::min(natoms * r / p * grain, extent),
                           std::min(natoms * (r + 1) / p * grain, extent));
}

/// Iterators over the four domain kinds the static split handles.
struct StaticShapes {
  /// CSR offsets of 300 ragged segments with a hub every 16th.
  static std::vector<index_t> ragged_offsets() {
    std::vector<index_t> offsets{0};
    for (index_t s = 0; s < 300; ++s) {
      offsets.push_back(offsets.back() + (s % 16 == 0 ? 40 : 1 + s % 3));
    }
    return offsets;
  }

  dist::SegmentedDistArray<double> seg{
      ragged_offsets(),
      std::vector<double>(static_cast<std::size_t>(ragged_offsets().back()),
                          1.0),
      8};

  static auto seq() {
    return map(core::range(0, 1000), [](index_t i) { return double(i); });
  }
  auto segs() const { return dist::from_segmented(seg); }
  static auto dim2() {
    return map(core::array_range(64, 64),
               [](core::Index2 i) { return double(i.y + i.x); });
  }
  static auto dim3() {
    return map(core::indices(core::Dim3{0, 16, 0, 8, 0, 8}),
               [](core::Index3 i) { return double(i.z + i.y + i.x); });
  }
};

TEST(SchedStatic, DefaultOptionsShipOneSplitBlocksBlockPerRank) {
  // SchedOptions{}: rank r runs core::split_blocks(dom, p)[r] — the paper's
  // node blocks, a 2x2 grid for a square Dim2 on 4 ranks.
  StaticShapes shapes;
  auto expect_blocks = [](int p, auto make) {
    const auto want = core::split_blocks(make().domain(), p);
    const auto got = static_domains(p, SchedOptions{}, make);
    for (int r = 0; r < p; ++r) {
      EXPECT_TRUE(got[static_cast<std::size_t>(r)] ==
                  want[static_cast<std::size_t>(r)])
          << "rank " << r << " of " << p;
    }
  };
  // 1,000 indices on 3 ranks: rank 1 gets [333, 666), not the atom band.
  const auto seq = static_domains(3, SchedOptions{}, StaticShapes::seq);
  EXPECT_EQ(seq[1], (Seq{333, 666}));
  expect_blocks(3, StaticShapes::seq);
  expect_blocks(3, [&] { return shapes.segs(); });
  expect_blocks(5, [&] { return shapes.segs(); });
  const auto grid = static_domains(4, SchedOptions{}, StaticShapes::dim2);
  EXPECT_EQ(grid[1], (core::Dim2{0, 32, 32, 64}));
  EXPECT_EQ(grid[2], (core::Dim2{32, 64, 0, 32}));
  expect_blocks(4, StaticShapes::dim2);
  expect_blocks(4, StaticShapes::dim3);
  expect_blocks(6, StaticShapes::dim3);
}

TEST(SchedStatic, OrderedOrExplicitGrainShipsAtomBands) {
  // kOrdered and an explicit grain need atom boundaries, so rank r runs
  // atoms [natoms*r/p, natoms*(r+1)/p) instead.
  StaticShapes shapes;
  SchedOptions ordered;
  ordered.combine = CombineMode::kOrdered;
  SchedOptions grained;
  grained.grain = 3;
  for (const SchedOptions& opts : {ordered, grained}) {
    auto expect_bands = [&](int p, auto make) {
      const auto dom = make().domain();
      const auto got = static_domains(p, opts, make);
      for (int r = 0; r < p; ++r) {
        EXPECT_TRUE(got[static_cast<std::size_t>(r)] ==
                    atom_band(dom, p, r, opts))
            << "rank " << r << " of " << p << ", grain " << opts.grain;
      }
    };
    expect_bands(3, StaticShapes::seq);
    expect_bands(3, [&] { return shapes.segs(); });
    expect_bands(4, StaticShapes::dim2);
    expect_bands(4, StaticShapes::dim3);
  }
  // 1,000 indices on 3 ranks, auto grain 41: rank 1 gets [328, 656).
  const auto seq = static_domains(3, ordered, StaticShapes::seq);
  EXPECT_EQ(seq[1], (Seq{328, 656}));
}

/// The triangular pair nest of n points: outer index i pairs with [i + 1,
/// n), so it holds n - 1 - i inner elements (tpacf's RR loops).
auto triangle(index_t n) {
  return core::concat_map(core::range(0, n), [n](index_t i) {
    return map(core::range(i + 1, n), [](index_t j) { return double(j); });
  });
}

/// Inner elements of triangle(n) over outer indices d.
index_t triangle_pairs(index_t n, Seq d) {
  index_t pairs = 0;
  for (index_t i = d.lo; i < d.hi; ++i) pairs += n - 1 - i;
  return pairs;
}

TEST(SchedStatic, SizedNestBlocksHoldEqualSharesOfInnerElements) {
  // split_blocks would give rank 0 of 2 three quarters of the pairs. The
  // weighted cut gives each rank total/p within one stratum's weight, and
  // with n <= kWeightStrata cuts every boundary at the index whose prefix
  // lies nearest its share of the total.
  static_assert(core::is_sized_nest_v<decltype(triangle(1))>);
  for (const index_t n : {index_t{60}, index_t{5000}}) {
    const index_t total = n * (n - 1) / 2;
    const index_t strata = std::min(n, core::kWeightStrata);
    index_t stratum_max = 0;
    for (index_t j = 0; j < strata; ++j) {
      stratum_max = std::max(
          stratum_max,
          triangle_pairs(n, Seq{n * j / strata, n * (j + 1) / strata}));
    }
    for (const int p : {2, 3, 5, 8}) {
      const auto got =
          static_domains(p, SchedOptions{}, [n] { return triangle(n); });
      index_t lo = 0;
      for (int r = 0; r < p; ++r) {
        const Seq b = got[static_cast<std::size_t>(r)];
        EXPECT_EQ(b.lo, lo) << "n " << n << ", rank " << r << " of " << p;
        lo = b.hi;
        EXPECT_LE(std::abs(triangle_pairs(n, b) * p - total), stratum_max * p)
            << "n " << n << ", rank " << r << " of " << p << " holds "
            << triangle_pairs(n, b) << " of " << total << " pairs";
      }
      EXPECT_EQ(lo, n);
      if (n > core::kWeightStrata) continue;
      for (int r = 1; r < p; ++r) {
        const index_t cut = got[static_cast<std::size_t>(r)].lo;
        auto miss = [&](index_t at) {
          return std::abs(triangle_pairs(n, Seq{0, at}) * p - total * r);
        };
        for (index_t at = 0; at <= n; ++at) {
          EXPECT_LE(miss(cut), miss(at))
              << "cut " << r << " of " << p << " at " << cut << ", not " << at;
        }
      }
    }
  }
}

TEST(SchedStatic, StepperNestsAndOtherGridsKeepSplitBlocks) {
  // A filter on an indexer yields 0-or-1 steppers with no size(), and a
  // nest over a Dim2 keeps its near-square grid: the root cannot or need
  // not weigh them, so they get split_blocks like every flat shape
  // (DefaultOptionsShipOneSplitBlocksBlockPerRank).
  auto evens = [] {
    return core::filter(core::range(0, 1000),
                        [](index_t i) { return i % 2 == 0; });
  };
  auto grid_nest = [] {
    return core::concat_map(core::array_range(32, 32), [](core::Index2 i) {
      return core::range(0, i.y * 32 + i.x);
    });
  };
  static_assert(!core::is_sized_nest_v<decltype(evens())>);
  static_assert(!core::is_sized_nest_v<decltype(grid_nest())>);
  static_assert(!core::is_sized_nest_v<decltype(StaticShapes::seq())>);
  for (const int p : {2, 3, 4}) {
    EXPECT_EQ(static_domains(p, SchedOptions{}, evens),
              core::split_blocks(evens().domain(), p));
    EXPECT_EQ(static_domains(p, SchedOptions{}, grid_nest),
              core::split_blocks(grid_nest().domain(), p));
  }
}

TEST(SchedStatic, DegenerateSizedNestsFallBack) {
  // An empty domain and a nest whose inners are all empty carry no weight:
  // split_blocks. Fewer outer units than ranks leaves some blocks empty,
  // and the empty blocks still run.
  auto empty = [] { return triangle(0); };
  auto hollow = [] {
    return core::concat_map(core::range(0, 100),
                            [](index_t i) { return core::range(i, i); });
  };
  for (const int p : {1, 3, 8}) {
    EXPECT_EQ(static_domains(p, SchedOptions{}, empty),
              core::split_blocks(Seq{0, 0}, p));
    EXPECT_EQ(static_domains(p, SchedOptions{}, hollow),
              core::split_blocks(Seq{0, 100}, p));
  }
  const auto few = static_domains(5, SchedOptions{}, [] { return triangle(3); });
  index_t lo = 0, pairs = 0;
  for (const Seq& b : few) {
    EXPECT_EQ(b.lo, lo);
    lo = b.hi;
    pairs += triangle_pairs(3, b);
  }
  EXPECT_EQ(lo, 3);
  EXPECT_EQ(pairs, 3);
}

TEST(SchedStatic, SizedNestIntegerResultsMatchSequential) {
  // count and histogram over the weighted blocks equal the sequential
  // consumers at every width.
  const index_t n = 300;
  auto make = [n] { return triangle(n); };
  const index_t want_count = core::count(make());
  const auto want_hist = core::histogram(n, map(make(), [](double j) {
    return static_cast<index_t>(j);
  }));
  for (const int p : {1, 2, 3, 5, 8}) {
    index_t got_count = -1;
    std::vector<std::int64_t> got_hist;
    auto res = net::Cluster::run(p, [&](net::Comm& comm) {
      NodeRuntime node(2);
      const index_t c = dist::count(comm, make);
      auto h = dist::histogram(comm, n, [&] {
        return map(make(), [](double j) { return static_cast<index_t>(j); });
      });
      if (comm.rank() == 0) {
        got_count = c;
        got_hist.assign(h.begin(), h.end());
      }
    });
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(got_count, want_count) << p << " ranks";
    EXPECT_EQ(got_hist,
              std::vector<std::int64_t>(want_hist.begin(), want_hist.end()))
        << p << " ranks";
  }
}

// -- degenerate shapes ---------------------------------------------------------

TEST(SchedDegenerate, EmptyDomainTerminatesAndSumsToZero) {
  for (auto policy : kAllPolicies) {
    for (auto combine : {CombineMode::kTree, CombineMode::kOrdered}) {
      SchedOptions opts{policy, combine};
      double got = -1;
      auto res = net::Cluster::run(4, [&](net::Comm& comm) {
        NodeRuntime node(1);
        auto make = [&] {
          return map(core::range(5, 5), [](index_t) { return 1.0; });
        };
        double r = dist::reduce(comm, make, 0.0,
                                [](double a, double b) { return a + b; },
                                opts);
        if (comm.rank() == 0) got = r;
      });
      ASSERT_TRUE(res.ok) << res.error;
      EXPECT_EQ(got, 0.0) << to_string(policy);
    }
  }
}

TEST(SchedDegenerate, EmptyDomainBuildsEmptyArray) {
  for (auto policy : kAllPolicies) {
    SchedOptions opts{policy};
    index_t got_size = -1;
    auto res = net::Cluster::run(3, [&](net::Comm& comm) {
      NodeRuntime node(1);
      auto make = [&] {
        return map(core::range(0, 0), [](index_t i) { return double(i); });
      };
      auto r = dist::build_array1(comm, make, opts);
      if (comm.rank() == 0) got_size = r.size();
    });
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(got_size, 0) << to_string(policy);
  }
}

TEST(SchedDegenerate, MoreNodesThanAtoms) {
  // 3 elements, grain 1 => 3 atoms on 8 nodes: most ranks get nothing and
  // must still terminate (static sends them empty grants; demand answers
  // their first request with done).
  for (auto policy : kAllPolicies) {
    SchedOptions opts{policy, CombineMode::kTree, 1};
    double got = 0;
    auto res = net::Cluster::run(8, [&](net::Comm& comm) {
      NodeRuntime node(1);
      auto make = [&] {
        return map(core::range(0, 3), [](index_t i) { return double(i + 1); });
      };
      double r = dist::sum(comm, make, opts);
      if (comm.rank() == 0) got = r;
    });
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(got, 6.0) << to_string(policy);
  }
}

TEST(SchedDegenerate, GrainLargerThanExtentIsOneAtom) {
  auto xs = random_array(100, 23);
  double expect = 0;
  for (index_t i = 0; i < xs.size(); ++i) expect += xs[i];

  for (auto policy : kAllPolicies) {
    SchedOptions opts{policy, CombineMode::kTree, 1000};
    double got = 0;
    auto res = net::Cluster::run(4, [&](net::Comm& comm) {
      NodeRuntime node(1);
      auto make = [&] { return from_array(xs); };
      double r = dist::sum(comm, make, opts);
      if (comm.rank() == 0) got = r;
    });
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_NEAR(got, expect, 1e-12) << to_string(policy);
  }
}

TEST(SchedDegenerate, SingleRankRunsEverythingLocally) {
  auto xs = random_array(500, 29);
  double expect = 0;
  for (index_t i = 0; i < xs.size(); ++i) expect += xs[i];

  for (auto policy : kAllPolicies) {
    SchedOptions opts{policy, CombineMode::kOrdered, 7};
    double got = 0;
    auto res = net::Cluster::run(1, [&](net::Comm& comm) {
      NodeRuntime node(2);
      auto make = [&] { return from_array(xs); };
      double r = dist::sum(comm, make, opts);
      got = r;
    });
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_NEAR(got, expect, 1e-12) << to_string(policy);
  }
}

// -- grant serialization -------------------------------------------------------

TEST(SchedGrant, RoundTripsThroughCodec) {
  auto xs = random_array(64, 31);
  auto it = core::from_array(xs);
  using It = decltype(it);

  Grant<It> g{0, 3, 2, 8, it.slice(Seq{16, 32})};
  auto bytes = serial::to_bytes(g);
  auto back = serial::from_bytes<Grant<It>>(bytes);
  EXPECT_EQ(back.done, 0);
  EXPECT_EQ(back.atom_lo, 3);
  EXPECT_EQ(back.atom_n, 2);
  EXPECT_EQ(back.grain, 8);
  EXPECT_EQ(back.task.domain(), (Seq{16, 32}));

  // A done grant carries no task payload at all.
  Grant<It> done{1, 0, 0, 8, {}};
  auto done_bytes = serial::to_bytes(done);
  EXPECT_EQ(done_bytes.size(), static_cast<std::size_t>(kGrantHeaderBytes));
  auto done_back = serial::from_bytes<Grant<It>>(done_bytes);
  EXPECT_EQ(done_back.done, 1);
}

// -- streamed grant execution --------------------------------------------------

TEST(SchedStreaming, SumMatchesSequentialUnderEveryPolicy) {
  auto xs = random_array(8000, 41);
  double expect = 0;
  for (index_t i = 0; i < xs.size(); ++i) expect += xs[i] * xs[i];

  for (auto policy : kAllPolicies) {
    SchedOptions opts{policy, CombineMode::kTree, 32};
    opts.streaming = true;
    double got = 0;
    auto res = net::Cluster::run(4, [&](net::Comm& comm) {
      NodeRuntime node(2);
      auto make = [&] {
        return map(from_array(xs), [](double x) { return x * x; });
      };
      double r = dist::sum(comm, make, opts);
      if (comm.rank() == 0) got = r;
    });
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_NEAR(got, expect, 1e-9 * std::abs(expect)) << to_string(policy);
  }
}

TEST(SchedStreaming, CountHistogramAndBuildWorkStreamed) {
  auto xs = random_array(6000, 43);
  index_t expect_count = 0;
  for (index_t i = 0; i < xs.size(); ++i) expect_count += (xs[i] > 0);

  SchedOptions opts{SchedulePolicy::kDynamic, CombineMode::kTree, 16};
  opts.streaming = true;
  index_t got_count = -1;
  Array1<std::int64_t> got_hist;
  Array1<double> got_arr;
  auto res = net::Cluster::run(3, [&](net::Comm& comm) {
    NodeRuntime node(2);
    auto make_filter = [&] {
      return core::filter(from_array(xs), [](double x) { return x > 0; });
    };
    index_t c = dist::count(comm, make_filter, opts);
    auto make_bins = [&] {
      return map(from_array(xs),
                 [](double x) { return static_cast<index_t>(x > 0); });
    };
    auto h = dist::histogram(comm, 2, make_bins, opts);
    auto make_sq = [&] {
      return map(from_array(xs), [](double x) { return x * x; });
    };
    auto a = dist::build_array1(comm, make_sq, opts);
    if (comm.rank() == 0) {
      got_count = c;
      got_hist = std::move(h);
      got_arr = std::move(a);
    }
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(got_count, expect_count);
  ASSERT_EQ(got_hist.size(), 2);
  EXPECT_EQ(got_hist[0] + got_hist[1], xs.size());
  EXPECT_EQ(got_hist[1], expect_count);
  ASSERT_EQ(got_arr.size(), xs.size());
  for (index_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(got_arr[i], xs[i] * xs[i]) << "index " << i;
  }
}

TEST(SchedStreaming, OrderedCombineBitwiseIdenticalStreamingOnAndOff) {
  // The acceptance bar for the streamed grant path: handing chunks to the
  // pool must change *where* per-atom partials are computed, never their
  // values or fold order. Mixed magnitudes make any deviation visible.
  Xoshiro256 rng(29);
  Array1<double> xs(4096);
  for (index_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-12.0, 12.0));
  }

  for (auto policy : {SchedulePolicy::kGuided, SchedulePolicy::kDynamic}) {
    std::vector<double> results;
    for (bool streaming : {false, true}) {
      SchedOptions opts{policy, CombineMode::kOrdered, 64};
      opts.streaming = streaming;
      double got = 0;
      auto res = net::Cluster::run(4, [&](net::Comm& comm) {
        NodeRuntime node(2);
        auto make = [&] { return from_array(xs); };
        double r = dist::reduce(comm, make, 0.0,
                                [](double a, double b) { return a + b; },
                                opts);
        if (comm.rank() == 0) got = r;
      });
      ASSERT_TRUE(res.ok) << res.error;
      results.push_back(got);
    }
    EXPECT_EQ(0, std::memcmp(&results[0], &results[1], sizeof(double)))
        << to_string(policy) << ": streaming off " << results[0]
        << " vs on " << results[1];
  }
}

TEST(SchedStreaming, RecordsStreamedGrantsAndOverlap) {
  auto xs = random_array(4096, 47);
  SchedOptions opts{SchedulePolicy::kDynamic, CombineMode::kTree, 32};
  opts.streaming = true;
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    NodeRuntime node(2);
    // Atoms must cost real time so grants are still in flight on the pool
    // while the rank thread waits for the next one (the overlap window).
    auto make = [&] {
      return map(from_array(xs), [](double x) {
        double v = x;
        for (int k = 0; k < 400; ++k) v += std::sin(v) * 1e-3;
        return v;
      });
    };
    (void)dist::sum(comm, make, opts);
  });
  ASSERT_TRUE(res.ok) << res.error;
  const net::SchedStats& s = res.total_stats.sched;
  // Every executed chunk went through the stream on the demand-driven path.
  EXPECT_GT(s.streamed_grants, 0);
  EXPECT_EQ(s.streamed_grants, s.chunks_executed);
  EXPECT_EQ(s.items_executed, xs.size());
  // Busy-while-receiving: some grant wait overlapped in-flight compute.
  EXPECT_GT(s.overlap_seconds, 0.0);
  // The pool counters the scheduled run charged to CommStats.
  EXPECT_GT(res.total_stats.pool.tasks_executed, 0);
}

TEST(SchedStreaming, SingleRankStreamsSelfIssuedAtoms) {
  // One rank: the root has no workers to serve, but its own atoms still
  // stream onto the pool (and must all land before the result is read).
  auto xs = random_array(3000, 53);
  double expect = 0;
  for (index_t i = 0; i < xs.size(); ++i) expect += xs[i];
  SchedOptions opts{SchedulePolicy::kGuided, CombineMode::kOrdered, 8};
  opts.streaming = true;
  double got = 0;
  std::int64_t streamed = 0;
  auto res = net::Cluster::run(1, [&](net::Comm& comm) {
    NodeRuntime node(2);
    auto make = [&] { return from_array(xs); };
    got = dist::reduce(comm, make, 0.0,
                       [](double a, double b) { return a + b; }, opts);
    streamed = comm.stats().sched.streamed_grants;
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_NEAR(got, expect, 1e-9 * xs.size());
  EXPECT_GT(streamed, 0);
}

}  // namespace
}  // namespace triolet::sched
