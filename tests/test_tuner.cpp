// Tests for the model-driven autotuner (src/sched/tuner.hpp): measurement
// configuration, calibration-driven picks on synthetic workloads with known
// best answers, SPMD pick determinism, the audit path after a gross
// misprediction, end-to-end kAuto rounds on real cluster threads, and the
// kOrdered bitwise-identity invariant against every manual configuration.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/triolet.hpp"
#include "dist/dist_array.hpp"
#include "dist/skeletons.hpp"
#include "net/cluster.hpp"
#include "sched/tuner.hpp"
#include "support/rng.hpp"

namespace triolet::sched {
namespace {

using core::from_array;
using core::index_t;
using core::map;
using dist::NodeRuntime;

Array1<double> random_array(index_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Array1<double> a(n);
  for (index_t i = 0; i < n; ++i) a[i] = rng.uniform(-1.0, 1.0);
  return a;
}

/// What one rank's tuner decided, for cross-rank comparison outside the
/// cluster lambda.
struct PickRecord {
  bool have = false;
  SchedulePolicy policy = SchedulePolicy::kAuto;
  index_t grain = 0;
  bool prefetch = false;
  int rounds = 0;

  static PickRecord of(const AutoTuner& t) {
    return {t.have_pick(), t.pick().policy, t.pick().grain,
            t.pick().prefetch, t.rounds()};
  }
  bool same_config(const PickRecord& o) const {
    return have == o.have && policy == o.policy && grain == o.grain &&
           prefetch == o.prefetch;
  }
};

// -- measurement configuration ------------------------------------------------

TEST(AutoTunerUnit, FirstRoundIsTheMeasurementConfiguration) {
  // Before any data exists, begin_round must hand back the instrumented
  // config: one-atom dynamic grants with nothing hiding the request->grant
  // wait — and never kAuto itself.
  AutoTuner t;
  SchedOptions user;
  user.policy = SchedulePolicy::kAuto;
  user.combine = CombineMode::kOrdered;
  user.grain = 7;

  const SchedOptions r0 = t.begin_round(user);
  EXPECT_EQ(r0.policy, SchedulePolicy::kDynamic);
  EXPECT_FALSE(r0.prefetch);
  EXPECT_EQ(r0.tuner, nullptr);
  // Caller-visible semantics survive untouched: the combine mode and the
  // pinned grain are the user's, only the scheduling knobs are replaced.
  EXPECT_EQ(r0.combine, CombineMode::kOrdered);
  EXPECT_EQ(r0.grain, 7);
  EXPECT_FALSE(t.have_pick());
  EXPECT_EQ(t.rounds(), 0);
}

TEST(AutoTunerUnit, RegistryKeysSeparateJobsAndCallerOwnedWins) {
  bool same_key_same_tuner = false;
  bool different_key_different_tuner = false;
  bool caller_owned_wins = false;
  auto res = net::Cluster::run(1, [&](net::Comm& comm) {
    SchedOptions a;
    a.tune_key = 1;
    SchedOptions b;
    b.tune_key = 2;
    AutoTuner& ta = detail::tuner_for(comm, a);
    same_key_same_tuner = (&detail::tuner_for(comm, a) == &ta);
    different_key_different_tuner = (&detail::tuner_for(comm, b) != &ta);
    AutoTuner mine;
    SchedOptions c;
    c.tuner = &mine;
    caller_owned_wins = (&detail::tuner_for(comm, c) == &mine);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(same_key_same_tuner);
  EXPECT_TRUE(different_key_different_tuner);
  EXPECT_TRUE(caller_owned_wins);
}

// -- synthetic workloads with known best answers ------------------------------

/// Finishes the tuner's current round from synthetic measurements: rank 0
/// records `per_unit_seconds` (one run per outer unit, the measurement
/// round's shape) plus the matching counter delta; everyone else contributes
/// empty samples. Rank 0 reports `wall` as the round's wall time, or busy +
/// idle time when `wall` is negative.
void synthetic_round(AutoTuner& t, net::Comm& comm,
                     const std::vector<double>& per_unit_seconds,
                     double round_trip_seconds, std::int64_t bytes_per_unit,
                     double wall = -1.0) {
  const auto extent = static_cast<index_t>(per_unit_seconds.size());
  net::CommStats delta;
  double rank_wall = 0.0;
  if (comm.rank() == 0) {
    for (index_t i = 0; i < extent; ++i) {
      t.record_run(/*atom_lo=*/i, /*grain=*/1, /*units=*/1,
                   per_unit_seconds[static_cast<std::size_t>(i)]);
      delta.sched.busy_seconds += per_unit_seconds[
          static_cast<std::size_t>(i)];
    }
    delta.sched.items_executed = extent;
    delta.sched.chunks_executed = extent;
    delta.sched.steal_waits = extent;
    delta.sched.idle_seconds =
        static_cast<double>(extent) * round_trip_seconds;
    delta.sched.grants_received = extent;
    delta.sched.grant_payload_bytes = extent * bytes_per_unit;
    delta.sched.granted_items = extent;
    rank_wall = wall >= 0.0
                    ? wall
                    : delta.sched.busy_seconds + delta.sched.idle_seconds;
  }
  t.finish_round(comm, rank_wall, delta,
                 comm.rank() == 0 ? extent : index_t{-1});
}

/// Drives one tuner round on a 4-rank cluster from synthetic measurements
/// (see synthetic_round). Returns each rank's resulting pick.
std::array<PickRecord, 4> synthetic_pick(
    const std::vector<double>& per_unit_seconds, double round_trip_seconds,
    std::int64_t bytes_per_unit) {
  std::array<PickRecord, 4> picks{};
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    AutoTuner t;
    SchedOptions user;
    user.policy = SchedulePolicy::kAuto;
    (void)t.begin_round(user);
    synthetic_round(t, comm, per_unit_seconds, round_trip_seconds,
                    bytes_per_unit);
    picks[static_cast<std::size_t>(comm.rank())] = PickRecord::of(t);
  });
  EXPECT_TRUE(res.ok) << res.error;
  return picks;
}

TEST(AutoTunerPick, SkewedWorkloadPicksADemandPolicy) {
  // Triangular per-unit costs (the tpacf shape) with a cheap control round
  // trip: static blocks leave the last rank with ~44% of the work, demand
  // claiming balances it — the model must not pick kStatic.
  std::vector<double> tri(64);
  for (std::size_t i = 0; i < tri.size(); ++i) {
    tri[i] = static_cast<double>(i + 1) * 1e-3;
  }
  const auto picks = synthetic_pick(tri, /*round_trip=*/1e-4,
                                    /*bytes_per_unit=*/100);
  for (const auto& p : picks) {
    ASSERT_TRUE(p.have);
    EXPECT_TRUE(p.policy == SchedulePolicy::kGuided ||
                p.policy == SchedulePolicy::kDynamic)
        << to_string(p.policy);
    EXPECT_EQ(p.rounds, 1);
  }
}

TEST(AutoTunerPick, UniformWorkloadWithCostlyControlPicksStatic) {
  // Uniform tiny units behind an expensive round trip: every demand claim
  // pays ~50ms of control for 0.1ms of work, while static pays one grant
  // latency total. The model must pick kStatic.
  std::vector<double> uni(64, 1e-4);
  const auto picks = synthetic_pick(uni, /*round_trip=*/5e-2,
                                    /*bytes_per_unit=*/16);
  for (const auto& p : picks) {
    ASSERT_TRUE(p.have);
    EXPECT_EQ(p.policy, SchedulePolicy::kStatic) << to_string(p.policy);
  }
}

TEST(AutoTunerPick, PowerLawSkewRecordsCostCvAndPicksDemand) {
  // The segmented-source shape: most units are tiny, the jumbo segment
  // groups cluster at the front (sorted degree order). One measured round
  // must (a) record the per-atom skew on the calibration, and (b) pick a
  // demand policy — static blocks strand the jumbo cluster on one rank.
  std::vector<double> jumbo(64);
  for (std::size_t i = 0; i < jumbo.size(); ++i) {
    jumbo[i] = (i < 4) ? 20e-3 : 0.5e-3;
  }
  std::array<double, 4> cvs{};
  std::array<PickRecord, 4> picks{};
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    AutoTuner t;
    SchedOptions user;
    user.policy = SchedulePolicy::kAuto;
    (void)t.begin_round(user);
    const auto extent = static_cast<index_t>(jumbo.size());
    net::CommStats delta;
    double wall = 0.0;
    if (comm.rank() == 0) {
      for (index_t i = 0; i < extent; ++i) {
        t.record_run(i, 1, 1, jumbo[static_cast<std::size_t>(i)]);
        delta.sched.busy_seconds += jumbo[static_cast<std::size_t>(i)];
      }
      delta.sched.items_executed = extent;
      delta.sched.chunks_executed = extent;
      delta.sched.steal_waits = extent;
      delta.sched.idle_seconds = static_cast<double>(extent) * 1e-4;
      delta.sched.grants_received = extent;
      delta.sched.grant_payload_bytes = extent * 100;
      delta.sched.granted_items = extent;
      wall = delta.sched.busy_seconds + delta.sched.idle_seconds;
    }
    // The domain-side hint (core::outer_cost_cv of the SegSeq weights)
    // rides the same allgather as the extent.
    t.finish_round(comm, wall, delta, comm.rank() == 0 ? extent : index_t{-1},
                   comm.rank() == 0 ? 1.3 : 0.0);
    cvs[static_cast<std::size_t>(comm.rank())] = t.calibration().cost_cv;
    picks[static_cast<std::size_t>(comm.rank())] = PickRecord::of(t);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_GT(cvs[0], 1.0);  // rank 0 measured the profile
  for (const auto& p : picks) {
    ASSERT_TRUE(p.have);
    EXPECT_TRUE(p.policy == SchedulePolicy::kGuided ||
                p.policy == SchedulePolicy::kDynamic)
        << to_string(p.policy);
  }
  for (std::size_t r = 1; r < picks.size(); ++r) {
    EXPECT_TRUE(picks[0].same_config(picks[r])) << "rank " << r;
  }
}

TEST(AutoTunerPick, AllRanksPickTheIdenticalConfiguration) {
  // The pick is a pure function of allgathered data: every rank must land
  // on the same configuration without any broadcast.
  std::vector<double> mixed(48);
  Xoshiro256 rng(17);
  for (auto& d : mixed) d = rng.uniform(1e-4, 5e-3);
  const auto picks = synthetic_pick(mixed, 1e-3, 64);
  for (std::size_t r = 1; r < picks.size(); ++r) {
    EXPECT_TRUE(picks[0].same_config(picks[r])) << "rank " << r;
  }
}

// -- measured feedback: the audit path ---------------------------------------

// Uniform units behind a costly round trip, so the model's first pick is
// kStatic (as in UniformWorkloadWithCostlyControlPicksStatic). kOrdered
// pins one grain, so each policy has exactly one audit configuration.
const std::vector<double> kUniformUnits(64, 1e-4);
constexpr double kCostlyRoundTrip = 5e-2;
constexpr std::int64_t kUnitBytes = 16;

SchedOptions ordered_auto() {
  SchedOptions user;
  user.policy = SchedulePolicy::kAuto;
  user.combine = CombineMode::kOrdered;
  return user;
}

TEST(AutoTunerAudit, WallPastThreeTimesThePredictionAuditsEveryPolicy) {
  std::array<std::vector<SchedulePolicy>, 4> ran{};
  std::array<AutoTuner::PickMode, 4> mode_after_miss{};
  std::array<PickRecord, 4> guided{};
  std::array<PickRecord, 4> committed{};
  std::array<AutoTuner::PickMode, 4> final_mode{};
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    AutoTuner t;
    const SchedOptions user = ordered_auto();
    (void)t.begin_round(user);  // the measurement round
    synthetic_round(t, comm, kUniformUnits, kCostlyRoundTrip, kUnitBytes);
    // The wall each policy's round reports, in multiples of the first
    // pick's prediction: the model's pick misses by 3.1x, and guided, which
    // the model did not pick, is the fastest on the clock.
    const double predicted = t.last_predicted_seconds();
    auto wall_of = [&](SchedulePolicy p) {
      switch (p) {
        case SchedulePolicy::kStatic: return 3.1 * predicted;
        case SchedulePolicy::kGuided: return 1.5 * predicted;
        default: return 2.5 * predicted;
      }
    };
    for (int round = 0; round < 3; ++round) {
      const SchedOptions o = t.begin_round(user);
      ran[r].push_back(o.policy);
      if (o.policy == SchedulePolicy::kGuided) {
        guided[r] = {true, o.policy, o.grain, o.prefetch, 0};
      }
      synthetic_round(t, comm, kUniformUnits, kCostlyRoundTrip, kUnitBytes,
                      wall_of(o.policy));
      if (round == 0) mode_after_miss[r] = t.pick_mode();
    }
    committed[r] = PickRecord::of(t);
    final_mode[r] = t.pick_mode();
  });
  ASSERT_TRUE(res.ok) << res.error;
  const std::vector<SchedulePolicy> each_once = {SchedulePolicy::kStatic,
                                                 SchedulePolicy::kGuided,
                                                 SchedulePolicy::kDynamic};
  for (std::size_t r = 0; r < 4; ++r) {
    // The model's pick, then one audit round for each policy not yet seen.
    EXPECT_EQ(ran[r], each_once) << "rank " << r;
    EXPECT_EQ(mode_after_miss[r], AutoTuner::PickMode::kAudit) << "rank " << r;
    EXPECT_EQ(final_mode[r], AutoTuner::PickMode::kCommitted) << "rank " << r;
    // Committed to the lowest observed wall: the guided round's config.
    EXPECT_TRUE(committed[r].same_config(guided[r])) << "rank " << r;
  }
}

TEST(AutoTunerAudit, WallUnderThreeTimesThePredictionKeepsTheModel) {
  std::array<AutoTuner::PickMode, 4> modes{};
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    AutoTuner t;
    const SchedOptions user = ordered_auto();
    (void)t.begin_round(user);
    synthetic_round(t, comm, kUniformUnits, kCostlyRoundTrip, kUnitBytes);
    const double predicted = t.last_predicted_seconds();
    (void)t.begin_round(user);
    synthetic_round(t, comm, kUniformUnits, kCostlyRoundTrip, kUnitBytes,
                    2.9 * predicted);
    modes[static_cast<std::size_t>(comm.rank())] = t.pick_mode();
  });
  ASSERT_TRUE(res.ok) << res.error;
  for (const auto mode : modes) EXPECT_EQ(mode, AutoTuner::PickMode::kModel);
}

// -- end-to-end kAuto on real cluster threads ---------------------------------

TEST(AutoSched, StaysCorrectEveryRoundAndConverges) {
  auto xs = random_array(20000, 3);
  double expect = 0;
  for (index_t i = 0; i < xs.size(); ++i) expect += xs[i] * xs[i];

  const int kRounds = 4;
  std::vector<double> results;
  std::array<PickRecord, 4> picks{};
  std::array<bool, 4> cal_valid{};
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    NodeRuntime node(2);
    AutoTuner t;
    SchedOptions opts;
    opts.policy = SchedulePolicy::kAuto;
    opts.tuner = &t;
    auto make = [&] {
      return map(from_array(xs), [](double x) { return x * x; });
    };
    for (int r = 0; r < kRounds; ++r) {
      double v = dist::sum(comm, make, opts);
      if (comm.rank() == 0) results.push_back(v);
    }
    const auto rank = static_cast<std::size_t>(comm.rank());
    picks[rank] = PickRecord::of(t);
    cal_valid[rank] = t.calibration().valid();
  });
  ASSERT_TRUE(res.ok) << res.error;

  // Every round — the measurement round included — returns the right sum.
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kRounds));
  for (double v : results) {
    EXPECT_NEAR(v, expect, 1e-9 * std::abs(expect));
  }
  // After kRounds rounds every rank holds a valid calibration and an
  // identical concrete pick.
  for (std::size_t r = 0; r < picks.size(); ++r) {
    EXPECT_TRUE(cal_valid[r]) << "rank " << r;
    ASSERT_TRUE(picks[r].have) << "rank " << r;
    EXPECT_EQ(picks[r].rounds, kRounds) << "rank " << r;
    EXPECT_NE(picks[r].policy, SchedulePolicy::kAuto);
    EXPECT_TRUE(picks[0].same_config(picks[r])) << "rank " << r;
  }
}

TEST(AutoSched, RegistryCarriesStateAcrossCallsWithSharedKey) {
  // Without a caller-owned tuner, rounds that share a tune_key accumulate
  // in the Comm's registry: the second call must no longer be a
  // measurement round (it runs the model's pick).
  auto xs = random_array(8000, 21);
  double expect = 0;
  for (index_t i = 0; i < xs.size(); ++i) expect += xs[i];

  std::array<int, 4> rounds_after{};
  std::vector<double> results;
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    NodeRuntime node(2);
    const auto opts = dist::auto_options(/*tune_key=*/42);
    auto make = [&] { return from_array(xs); };
    for (int r = 0; r < 3; ++r) {
      double v = dist::reduce(comm, make, 0.0,
                              [](double a, double b) { return a + b; }, opts);
      if (comm.rank() == 0) results.push_back(v);
    }
    SchedOptions probe;
    probe.tune_key = 42;
    rounds_after[static_cast<std::size_t>(comm.rank())] =
        detail::tuner_for(comm, probe).rounds();
  });
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(results.size(), 3u);
  for (double v : results) EXPECT_NEAR(v, expect, 1e-9 * xs.size());
  for (int r : rounds_after) EXPECT_EQ(r, 3);
}

// -- the kOrdered invariant under autotuning ----------------------------------

TEST(AutoSched, OrderedCombineBitwiseIdenticalToEveryManualConfig) {
  // Mixed-magnitude doubles make any reordering of the fold visible in the
  // low bits. kAuto may pick any policy/prefetch combination per round;
  // with kOrdered it must pin the grain, so every round's result — and
  // every manual configuration at the same (auto-resolved) grain — must be
  // the same bits.
  Xoshiro256 rng(29);
  Array1<double> xs(4096);
  for (index_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-12.0, 12.0));
  }

  struct Config {
    SchedulePolicy policy;
    bool prefetch;
  };
  const Config manual[] = {
      {SchedulePolicy::kStatic, true},
      {SchedulePolicy::kGuided, true},
      {SchedulePolicy::kGuided, false},
      {SchedulePolicy::kDynamic, true},
      {SchedulePolicy::kDynamic, false},
  };

  auto run_reduce = [&](const SchedOptions& opts, int rounds) {
    std::vector<double> out;
    auto res = net::Cluster::run(4, [&](net::Comm& comm) {
      NodeRuntime node(2);
      auto make = [&] { return from_array(xs); };
      for (int r = 0; r < rounds; ++r) {
        double v = dist::reduce(comm, make, 0.0,
                                [](double a, double b) { return a + b; },
                                opts);
        if (comm.rank() == 0) out.push_back(v);
      }
    });
    EXPECT_TRUE(res.ok) << res.error;
    return out;
  };

  std::vector<double> reference;
  for (const Config& c : manual) {
    SchedOptions opts;
    opts.policy = c.policy;
    opts.combine = CombineMode::kOrdered;
    opts.prefetch = c.prefetch;
    auto got = run_reduce(opts, 1);
    ASSERT_EQ(got.size(), 1u);
    reference.push_back(got[0]);
  }
  for (std::size_t i = 1; i < reference.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(&reference[0], &reference[i], sizeof(double)))
        << "manual config " << i << " diverged";
  }

  // kAuto over several rounds: whatever it picks each round, the bits
  // must match the manual configurations above.
  SchedOptions opts;
  opts.policy = SchedulePolicy::kAuto;
  opts.combine = CombineMode::kOrdered;
  auto got = run_reduce(opts, 4);
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(0, std::memcmp(&reference[0], &got[r], sizeof(double)))
        << "kAuto round " << r << " diverged: " << reference[0] << " vs "
        << got[r];
  }
}

// -- stats plumbing the tuner rides on ----------------------------------------

TEST(CommStatsDelta, SubtractionIsFieldwiseAcrossNestedStructs) {
  net::CommStats a, b;
  a.bytes_sent = 100;
  b.bytes_sent = 40;
  a.sched.items_executed = 10;
  b.sched.items_executed = 4;
  a.sched.busy_seconds = 2.5;
  b.sched.busy_seconds = 1.0;
  a.sched.grant_payload_bytes = 900;
  b.sched.grant_payload_bytes = 300;
  a.pool.tasks_executed = 8;
  b.pool.tasks_executed = 3;
  a.residency.bytes_avoided = 50;
  b.residency.bytes_avoided = 20;
  a.collectives[0].calls = 5;
  b.collectives[0].calls = 2;

  const net::CommStats d = a - b;
  EXPECT_EQ(d.bytes_sent, 60);
  EXPECT_EQ(d.sched.items_executed, 6);
  EXPECT_DOUBLE_EQ(d.sched.busy_seconds, 1.5);
  EXPECT_EQ(d.sched.grant_payload_bytes, 600);
  EXPECT_EQ(d.pool.tasks_executed, 5);
  EXPECT_EQ(d.residency.bytes_avoided, 30);
  EXPECT_EQ(d.collectives[0].calls, 3);
}

TEST(CommStatsDelta, SnapshotDeltaIsolatesOneScheduledRound) {
  // snapshot_stats() before/after brackets exactly one round's traffic:
  // the delta sees the round's executed items, the full counters keep
  // accumulating.
  auto xs = random_array(4000, 55);
  std::array<std::int64_t, 2> delta_items{};
  std::array<std::int64_t, 2> total_items{};
  auto res = net::Cluster::run(2, [&](net::Comm& comm) {
    NodeRuntime node(2);
    SchedOptions opts;
    opts.policy = SchedulePolicy::kDynamic;
    auto make = [&] { return from_array(xs); };
    // A first round whose traffic must NOT appear in the bracketed delta.
    (void)dist::sum(comm, make, opts);
    const net::CommStats before = comm.snapshot_stats();
    (void)dist::sum(comm, make, opts);
    const net::CommStats d = comm.snapshot_stats() - before;
    const auto rank = static_cast<std::size_t>(comm.rank());
    delta_items[rank] = d.sched.items_executed;
    total_items[rank] = comm.snapshot_stats().sched.items_executed;
  });
  ASSERT_TRUE(res.ok) << res.error;
  // Each round executes every item exactly once across the cluster.
  EXPECT_EQ(delta_items[0] + delta_items[1], xs.size());
  EXPECT_EQ(total_items[0] + total_items[1], 2 * xs.size());
}

TEST(SchedStats, GrantPayloadCountersMeasureReceiverSideBytes) {
  // Workers (not the root) receive grants; their payload byte and item
  // counters feed grant_bytes_per_item. The cluster-wide granted_items is
  // exactly the items the non-root ranks executed. Items must cost real
  // compute: a trivial sum lets the root self-issue every atom before the
  // first worker request even lands (oversubscribed ranks share cores).
  auto xs = random_array(6000, 77);
  std::array<net::SchedStats, 4> per_rank{};
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    NodeRuntime node(2);
    SchedOptions opts;
    opts.policy = SchedulePolicy::kGuided;
    opts.grain = 50;
    auto make = [&] {
      return core::map(from_array(xs), [](double x) {
        double v = x;
        for (int k = 0; k < 2000; ++k) v += std::sin(v + 1e-3 * k);
        return v;
      });
    };
    (void)dist::sum(comm, make, opts);
    per_rank[static_cast<std::size_t>(comm.rank())] =
        comm.snapshot_stats().sched;
  });
  ASSERT_TRUE(res.ok) << res.error;

  std::int64_t granted = 0, executed_off_root = 0, payload = 0;
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    granted += per_rank[r].granted_items;
    payload += per_rank[r].grant_payload_bytes;
    if (r != 0) executed_off_root += per_rank[r].items_executed;
  }
  EXPECT_EQ(per_rank[0].granted_items, 0);  // the root grants, never receives
  EXPECT_EQ(granted, executed_off_root);
  EXPECT_GT(granted, 0);
  // Grants carry real serialized tasks: bytes per item is at least one
  // double's worth for this array-backed iterator.
  EXPECT_GE(payload, granted * static_cast<std::int64_t>(sizeof(double)));
}

}  // namespace
}  // namespace triolet::sched
