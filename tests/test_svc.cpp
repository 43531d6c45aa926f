// Tests for the service layer (src/svc/): per-job tag-band leasing and the
// TagMap compression behind it, fair-share grant arbitration,
// admission/backpressure and batching in the JobManager, per-job stats
// attribution, failure isolation between concurrent jobs, and the
// bitwise-determinism contract: a kOrdered job run inside a busy service
// equals the same job run alone. Band-restricted wildcard matching and band
// purges are test_msgplane's MatchTableTest cases.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/triolet.hpp"
#include "dist/dist_array.hpp"
#include "dist/segmented.hpp"
#include "dist/skeletons.hpp"
#include "dist/views.hpp"
#include "net/cluster.hpp"
#include "net/pool.hpp"
#include "net/tags.hpp"
#include "support/rng.hpp"
#include "svc/band_allocator.hpp"
#include "svc/fair_share.hpp"
#include "svc/job_manager.hpp"

namespace triolet::svc {
namespace {

using core::from_array;
using core::index_t;
using dist::DistArray;
using dist::from_resident;
using dist::NodeRuntime;

Array1<double> random_array(index_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Array1<double> a(n);
  for (index_t i = 0; i < n; ++i) a[i] = rng.uniform(-1.0, 1.0);
  return a;
}

/// Mixed-magnitude data: any change in fold order shows up in the low bits.
Array1<double> spiky_array(index_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Array1<double> a(n);
  for (index_t i = 0; i < n; ++i) {
    a[i] = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-12.0, 12.0));
  }
  return a;
}

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// -- TagMap -------------------------------------------------------------------

TEST(TagMap, IdentityMapsEverythingUnchanged) {
  net::TagMap id;
  EXPECT_TRUE(id.identity());
  EXPECT_EQ(id.map(0), 0);
  EXPECT_EQ(id.map(12345), 12345);
  EXPECT_EQ(id.map(net::kTagSchedBand), net::kTagSchedBand);
  EXPECT_EQ(id.map_pattern(net::kAnyTag), net::kAnyTag);
  EXPECT_EQ(id.any_lo(), 0);
}

TEST(TagMap, LeasedBandCompressesEveryTrafficClass) {
  const int base = net::job_band_base(3);
  net::TagMap m{base};
  EXPECT_FALSE(m.identity());
  EXPECT_EQ(m.any_lo(), base);
  EXPECT_EQ(m.any_hi(), base + net::kJobBandWidth);

  // User tags land at the bottom of the band.
  EXPECT_EQ(m.map(0), base);
  EXPECT_EQ(m.map(100), base + 100);
  // Each reserved class lands at its own compressed offset.
  EXPECT_EQ(m.map(net::kTagSchedBand), base + net::kJobSchedOffset);
  EXPECT_EQ(m.map(net::kTagAsyncBand), base + net::kJobAsyncOffset);
  EXPECT_EQ(m.map(net::kTagResidencyBand), base + net::kJobResidencyOffset);
  EXPECT_EQ(m.map(net::kTagGroupBand), base + net::kJobGroupOffset);
  EXPECT_EQ(m.map(net::kFirstReservedTag), base + net::kJobCollectiveOffset);
  // Wildcards pass through map_pattern.
  EXPECT_EQ(m.map_pattern(net::kAnyTag), net::kAnyTag);
  // Everything maps inside the lease.
  for (int t : {0, net::kTagSchedBand + 5, net::kTagResidencyBand + 63,
                net::kFirstReservedTag + 100}) {
    EXPECT_GE(m.map(t), m.any_lo());
    EXPECT_LT(m.map(t), m.any_hi());
  }
}

TEST(TagMap, DistinctLeasesNeverCollide) {
  net::TagMap a{net::job_band_base(0)};
  net::TagMap b{net::job_band_base(1)};
  // The same canonical tag maps into disjoint ranges.
  for (int t : {0, 7, net::kTagSchedBand, net::kFirstReservedTag}) {
    const int ma = a.map(t), mb = b.map(t);
    EXPECT_TRUE(ma < b.any_lo() || ma >= b.any_hi());
    EXPECT_TRUE(mb < a.any_lo() || mb >= a.any_hi());
  }
}

// -- BandAllocator ------------------------------------------------------------

TEST(BandAllocatorTest, LeasesAreDistinctAuditedAndReusedLowestFirst) {
  BandAllocator alloc(3);
  EXPECT_EQ(alloc.capacity(), 3);

  net::TagMap a = alloc.lease();
  net::TagMap b = alloc.lease();
  EXPECT_EQ(a.base, net::job_band_base(0));
  EXPECT_EQ(b.base, net::job_band_base(1));
  EXPECT_EQ(alloc.leased(), 2);
  // The dynamic extension of assert_tag_bands_disjoint: any candidate slot
  // audits clean against the static table and the active leases.
  std::string why;
  EXPECT_TRUE(alloc.candidate_disjoint(2, &why)) << why;

  alloc.reclaim(a);
  EXPECT_EQ(alloc.leased(), 1);
  net::TagMap c = alloc.lease();
  EXPECT_EQ(c.base, net::job_band_base(0));  // lowest-first reuse
}

TEST(BandAllocatorTest, ExhaustionIsAClearErrorNotAHang) {
  BandAllocator alloc(2);
  net::TagMap a = alloc.lease();
  net::TagMap b = alloc.lease();
  net::TagMap spare;
  EXPECT_FALSE(alloc.try_lease(spare));
  EXPECT_THROW(alloc.lease(), BandsExhausted);
  try {
    alloc.lease();
    FAIL() << "lease past capacity must throw";
  } catch (const BandsExhausted& e) {
    EXPECT_NE(std::string(e.what()).find("2"), std::string::npos);
  }
  alloc.reclaim(b);
  EXPECT_TRUE(alloc.try_lease(spare));
  EXPECT_EQ(spare.base, b.base);
  (void)a;
}

// -- GrantArbiter -------------------------------------------------------------

TEST(GrantArbiterTest, UnregisteredAndSoloJobsPassThrough) {
  GrantArbiter arb(1024);
  // Unregistered: straight through, stats still recorded.
  arb.acquire(99, 10);
  EXPECT_EQ(arb.job_stats(99).acquires, 1);
  EXPECT_EQ(arb.job_stats(99).acquired_items, 10);
  // Alone in the ring: no one to be fair to.
  arb.add_job(1, 1);
  arb.acquire(1, 5000);
  arb.acquire(1, 5000);
  EXPECT_EQ(arb.job_stats(1).acquired_items, 10000);
  EXPECT_EQ(arb.job_stats(1).waits, 0);
  arb.remove_job(1);
  EXPECT_EQ(arb.active_jobs(), 0);
}

/// Runs `per_job` quantum-sized acquires from two concurrent roots and
/// returns the interleaved grant order.
std::vector<int> grant_order(GrantArbiter& arb, std::int64_t quantum,
                             int per_job, int items_a, int items_b) {
  std::mutex mu;
  std::vector<int> order;
  auto root = [&](std::uint64_t job, int items) {
    for (int i = 0; i < per_job; ++i) {
      arb.acquire(job, items);
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(static_cast<int>(job));
    }
  };
  std::thread ta(root, 1, items_a);
  std::thread tb(root, 2, items_b);
  ta.join();
  tb.join();
  (void)quantum;
  return order;
}

TEST(GrantArbiterTest, EqualWeightsAlternateInTheOverlapWindow) {
  const std::int64_t q = 1 << 10;
  GrantArbiter arb(q);
  arb.add_job(1, 1);
  arb.add_job(2, 1);
  auto order = grant_order(arb, q, 24, static_cast<int>(q),
                           static_cast<int>(q));
  ASSERT_EQ(order.size(), 48u);
  EXPECT_EQ(arb.job_stats(1).acquired_items, 24 * q);
  EXPECT_EQ(arb.job_stats(2).acquired_items, 24 * q);
  // In the window where both jobs are backlogged (between the other job's
  // first and last grant), quantum-sized grants under equal weights strictly
  // alternate: a job's next grant needs a fresh rotation past its peer.
  for (std::size_t i = 1; i + 1 < order.size(); ++i) {
    const int other = order[i] == 1 ? 2 : 1;
    bool other_before = false, other_after = false;
    for (std::size_t j = 0; j < i; ++j) other_before |= order[j] == other;
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      other_after |= order[j] == other;
    }
    if (other_before && other_after) {
      EXPECT_NE(order[i], order[i - 1])
          << "two consecutive grants to job " << order[i] << " at " << i;
    }
  }
}

TEST(GrantArbiterTest, WeightsScaleGrantShares) {
  const std::int64_t q = 1 << 10;
  GrantArbiter arb(q);
  arb.add_job(1, 1);
  arb.add_job(2, 3);  // 3x credit per rotation
  auto order = grant_order(arb, q, 30, static_cast<int>(q),
                           static_cast<int>(q));
  // In the overlap window, job 1 never lands back-to-back grants (weight 1,
  // quantum-sized grants spend its whole turn), while job 2 may take up to
  // 3 in a row but never 4.
  int run = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    bool overlap = false;
    const int other = order[i] == 1 ? 2 : 1;
    bool before = false, after = false;
    for (std::size_t j = 0; j < i; ++j) before |= order[j] == other;
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      after |= order[j] == other;
    }
    overlap = before && after;
    run = (i > 0 && order[i] == order[i - 1]) ? run + 1 : 1;
    if (overlap && order[i] == 1) {
      EXPECT_LE(run, 1);
    }
    if (overlap && order[i] == 2) {
      EXPECT_LE(run, 3);
    }
  }
  EXPECT_EQ(arb.job_stats(1).acquired_items, 30 * q);
  EXPECT_EQ(arb.job_stats(2).acquired_items, 30 * q);
}

TEST(GrantArbiterTest, OversizedGrantsBorrowAndSitOut) {
  const std::int64_t q = 100;
  GrantArbiter arb(q);
  arb.add_job(1, 1);
  arb.add_job(2, 1);
  // Job 1 issues grants 4x the quantum; job 2 issues quantum-sized ones.
  // Weighted DRR still equalizes *items* over the window: after job 1's
  // oversized grant its deficit is deeply negative, so job 2 gets ~4 grants
  // while job 1 pays the debt back.
  auto order = grant_order(arb, q, 8, 400, 100);
  std::int64_t total_1 = arb.job_stats(1).acquired_items;
  std::int64_t total_2 = arb.job_stats(2).acquired_items;
  EXPECT_EQ(total_1, 8 * 400);
  EXPECT_EQ(total_2, 8 * 100);
  ASSERT_EQ(order.size(), 16u);
}

// -- JobManager: admission and backpressure -----------------------------------

TEST(JobManagerTest, TrySubmitRejectsWhenTheQueueIsFullAndSubmitBlocks) {
  ServiceOptions so;
  so.nranks = 2;
  so.max_concurrent = 1;
  so.max_queued = 2;
  JobManager mgr(so);

  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  auto blocker = [&](JobContext& ctx) {
    if (ctx.rank() == 0) started.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
    ctx.comm().barrier();
  };
  auto noop = [](JobContext& ctx) { ctx.comm().barrier(); };

  JobHandle running = mgr.submit({"blocker"}, blocker);
  while (started.load() == 0) std::this_thread::yield();

  // The dispatcher slot is busy; fill the queue, then overflow it.
  JobHandle q1 = mgr.submit({"q1"}, noop);
  JobHandle q2 = mgr.submit({"q2"}, noop);
  EXPECT_FALSE(mgr.try_submit({"overflow"}, noop).has_value());

  // A blocking submit parks until the queue drains.
  std::atomic<bool> admitted{false};
  std::thread submitter([&] {
    JobHandle h = mgr.submit({"late"}, noop);
    admitted.store(true);
    EXPECT_TRUE(h.wait().ok);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(admitted.load());

  release.store(true);
  submitter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_TRUE(running.wait().ok);
  EXPECT_TRUE(q1.wait().ok);
  EXPECT_TRUE(q2.wait().ok);
  mgr.drain();

  ServiceStats s = mgr.stats();
  EXPECT_EQ(s.submitted, 4);
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.completed, 4);
  EXPECT_EQ(s.failed, 0);
  EXPECT_LE(s.peak_concurrent, 1);
}

TEST(JobManagerTest, ConcurrentGroupsHoldDistinctBandsAndReclaimThem) {
  ServiceOptions so;
  so.nranks = 2;
  so.max_concurrent = 2;
  JobManager mgr(so);

  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  auto blocker = [&](JobContext& ctx) {
    if (ctx.rank() == 0) started.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
    ctx.comm().barrier();
  };
  JobHandle a = mgr.submit({"a"}, blocker);
  JobHandle b = mgr.submit({"b"}, blocker);
  while (started.load() < 2) std::this_thread::yield();
  EXPECT_EQ(mgr.bands_in_use(), 2);

  release.store(true);
  JobResult ra = a.wait(), rb = b.wait();
  EXPECT_TRUE(ra.ok);
  EXPECT_TRUE(rb.ok);
  EXPECT_GE(ra.band_base, net::kJobBandRegion);
  EXPECT_GE(rb.band_base, net::kJobBandRegion);
  EXPECT_NE(ra.band_base, rb.band_base);
  mgr.drain();
  EXPECT_EQ(mgr.bands_in_use(), 0);
  EXPECT_EQ(mgr.stats().peak_concurrent, 2);
  EXPECT_EQ(mgr.stats().bands_leased, 2);
}

/// This process's virtual size in MB from /proc/self/status, or -1 where
/// that file cannot be read.
double vm_size_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stod(line.substr(7)) / 1024.0;  // the line is in kB
    }
  }
  return -1.0;
}

TEST(JobManagerTest, FinishedGroupThreadsAreJoinedBeforeShutdown) {
  // One job at a time, each its own group: a group thread that is never
  // joined keeps its stack mapped (~8 MB of address space per job) until
  // shutdown(), so VmSize would climb with every job served.
  if (vm_size_mb() < 0) GTEST_SKIP() << "/proc/self/status is not readable";
  ServiceOptions so;
  so.nranks = 2;
  so.max_concurrent = 1;
  JobManager mgr(so);
  auto noop = [](JobContext& ctx) { ctx.comm().barrier(); };
  double at_50 = 0;
  for (int j = 1; j <= 500; ++j) {
    JobResult r = mgr.submit({"noop-" + std::to_string(j)}, noop).wait();
    ASSERT_TRUE(r.ok) << r.error;
    if (j == 50) at_50 = vm_size_mb();
  }
  const double at_500 = vm_size_mb();
  EXPECT_LT(at_500 - at_50, 64.0)
      << "VmSize " << at_50 << " MB after job 50, " << at_500
      << " MB after job 500";
  mgr.drain();
  EXPECT_EQ(mgr.stats().completed, 500);
}

// -- JobManager: batching -----------------------------------------------------

TEST(JobManagerTest, SameKeyJobsCoalesceIntoSharedGroups) {
  ServiceOptions so;
  so.nranks = 2;
  so.max_concurrent = 1;
  so.batch_limit = 4;
  so.max_queued = 16;
  JobManager mgr(so);

  // Park the dispatcher slot so the batchable jobs pile up in the queue.
  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  JobHandle gate = mgr.submit({"gate"}, [&](JobContext& ctx) {
    if (ctx.rank() == 0) started.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
    ctx.comm().barrier();
  });
  while (started.load() == 0) std::this_thread::yield();

  auto xs = random_array(4096, 21);
  double expect = 0;
  for (index_t i = 0; i < xs.size(); ++i) expect += xs[i];

  std::vector<JobHandle> handles;
  for (int i = 0; i < 6; ++i) {
    JobOptions jo;
    jo.name = "batch-" + std::to_string(i);
    jo.batch_key = 7;
    handles.push_back(mgr.submit(jo, [&xs](JobContext& ctx) {
      sched::SchedOptions opts;
      opts.grain = 256;
      double r = dist::sum(ctx.comm(), [&] { return from_array(xs); },
                           ctx.sched_options(opts));
      if (ctx.rank() == 0) {
        TRIOLET_CHECK(std::isfinite(r), "batched sum returned non-finite");
      }
    }));
  }
  release.store(true);
  EXPECT_TRUE(gate.wait().ok);
  for (auto& h : handles) EXPECT_TRUE(h.wait().ok);
  mgr.drain();

  ServiceStats s = mgr.stats();
  // 6 batchable jobs with batch_limit 4 form at most 2 groups once the gate
  // clears; at least one group must have coalesced several jobs.
  EXPECT_GE(s.batches, 1);
  EXPECT_GE(s.batched_jobs, 4);
  bool saw_batched = false;
  for (auto& h : handles) saw_batched |= h.wait().batched_with > 0;
  EXPECT_TRUE(saw_batched);
  (void)expect;
}

// -- JobManager: per-job stats attribution ------------------------------------

TEST(JobManagerTest, PerJobStatsIsolateConcurrentWorkloads) {
  ServiceOptions so;
  so.nranks = 4;
  so.max_concurrent = 2;
  JobManager mgr(so);

  const index_t n_big = 40000, n_small = 5000;
  auto big = random_array(n_big, 31);
  auto small = random_array(n_small, 32);

  auto reduce_job = [](const Array1<double>& xs) {
    return [&xs](JobContext& ctx) {
      sched::SchedOptions opts;
      opts.grain = 500;
      (void)dist::sum(ctx.comm(), [&] { return from_array(xs); },
                      ctx.sched_options(opts));
    };
  };
  JobHandle ha = mgr.submit({"big"}, reduce_job(big));
  JobHandle hb = mgr.submit({"small"}, reduce_job(small));
  JobResult ra = ha.wait(), rb = hb.wait();
  ASSERT_TRUE(ra.ok) << ra.error;
  ASSERT_TRUE(rb.ok) << rb.error;

  // Each job's summed-over-ranks delta covers exactly its own extent.
  EXPECT_EQ(ra.stats.sched.items_executed, n_big);
  EXPECT_EQ(rb.stats.sched.items_executed, n_small);
  // The fair-share gate saw every granted unit of its own job and only
  // those (root self-issues included).
  EXPECT_EQ(ra.fair_share.acquired_items, n_big);
  EXPECT_EQ(rb.fair_share.acquired_items, n_small);
  EXPECT_GE(ra.run_seconds, 0.0);
  EXPECT_GE(ra.queued_seconds, 0.0);
}

// -- JobManager: failure isolation --------------------------------------------

TEST(JobManagerTest, AFailingJobDoesNotPoisonItsNeighbors) {
  // Pool-leak check: a failing job strands traffic — queued eager slabs and
  // rendezvous nodes, possibly still sitting in ring slots — and the band
  // purge must sweep every one of them back to the buffer pool. Snapshot
  // the pool before the service exists and compare after it is torn down.
  const std::int64_t pool_before = net::BufferPool::instance().outstanding();
  {
    ServiceOptions so;
    so.nranks = 2;
    so.max_concurrent = 2;
    JobManager mgr(so);

    auto xs = random_array(8192, 41);
    JobHandle bad = mgr.submit({"bad"}, [](JobContext& ctx) {
      ctx.comm().barrier();
      if (ctx.rank() == 1) throw std::runtime_error("synthetic job failure");
      // Rank 0 blocks on a message that never comes; the group abort must
      // wake it (ClusterAborted), not hang it.
      (void)ctx.comm().recv<int>(1, 17);
    });
    JobHandle good = mgr.submit({"good"}, [&xs](JobContext& ctx) {
      sched::SchedOptions opts;
      opts.grain = 512;
      (void)dist::sum(ctx.comm(), [&] { return from_array(xs); },
                      ctx.sched_options(opts));
    });

    JobResult rb = bad.wait();
    EXPECT_FALSE(rb.ok);
    EXPECT_NE(rb.error.find("synthetic job failure"), std::string::npos)
        << rb.error;
    JobResult rg = good.wait();
    EXPECT_TRUE(rg.ok) << rg.error;

    // The failed group's band was purged and reclaimed; the service keeps
    // serving.
    mgr.drain();
    EXPECT_EQ(mgr.bands_in_use(), 0);
    JobHandle after = mgr.submit({"after"}, [](JobContext& ctx) {
      ctx.comm().barrier();
    });
    EXPECT_TRUE(after.wait().ok);
    mgr.drain();  // handle fulfillment precedes the aggregate-stats update
    ServiceStats s = mgr.stats();
    EXPECT_EQ(s.failed, 1);
    EXPECT_EQ(s.completed, 2);
  }
  EXPECT_EQ(net::BufferPool::instance().outstanding(), pool_before)
      << "band purge / transport teardown leaked pooled buffers";
}

TEST(JobManagerTest, BatchNeighborsOfAFailedJobReportTheRootCause) {
  ServiceOptions so;
  so.nranks = 2;
  so.max_concurrent = 1;
  so.batch_limit = 3;
  JobManager mgr(so);

  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  JobHandle gate = mgr.submit({"gate"}, [&](JobContext& ctx) {
    if (ctx.rank() == 0) started.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
    ctx.comm().barrier();
  });
  while (started.load() == 0) std::this_thread::yield();

  JobOptions a{"first", 1, 5};
  JobOptions b{"boom", 1, 5};
  JobOptions c{"skipped", 1, 5};
  JobHandle ha = mgr.submit(a, [](JobContext& ctx) { ctx.comm().barrier(); });
  JobHandle hb = mgr.submit(b, [](JobContext&) {
    throw std::runtime_error("batched failure");
  });
  JobHandle hc = mgr.submit(c, [](JobContext& ctx) { ctx.comm().barrier(); });
  release.store(true);
  EXPECT_TRUE(gate.wait().ok);

  // The job before the failure completed; the failing job carries the
  // error; the job after it was skipped and names the culprit.
  EXPECT_TRUE(ha.wait().ok);
  JobResult rb = hb.wait();
  EXPECT_FALSE(rb.ok);
  EXPECT_NE(rb.error.find("batched failure"), std::string::npos);
  JobResult rc = hc.wait();
  EXPECT_FALSE(rc.ok);
  EXPECT_NE(rc.error.find("boom"), std::string::npos) << rc.error;
}

// -- JobManager: cross-job residency ------------------------------------------

TEST(JobManagerTest, ResidentSlicesSurviveAcrossJobs) {
  ServiceOptions so;
  so.nranks = 4;
  so.max_concurrent = 1;
  so.slice_cache_bytes = std::size_t{64} << 20;
  JobManager mgr(so);

  const index_t n = 40000;
  auto xs = random_array(n, 51);
  DistArray<double> d{Array1<double>(xs)};

  auto job = [&d](JobContext& ctx) {
    (void)dist::sum(ctx.comm(), [&] { return from_resident(d); });
  };
  JobResult r1 = mgr.submit({"warm"}, job).wait();
  ASSERT_TRUE(r1.ok) << r1.error;
  JobResult r2 = mgr.submit({"hot"}, job).wait();
  ASSERT_TRUE(r2.ok) << r2.error;

  // Job 1 inlined one slice per worker into the manager-owned caches; job 2
  // — a *different* job — found them resident and shipped tokens instead.
  EXPECT_EQ(r1.stats.residency.slices_inlined, 3);
  EXPECT_EQ(r1.stats.residency.tokens_sent, 0);
  EXPECT_EQ(r2.stats.residency.tokens_sent, 3);
  EXPECT_EQ(r2.stats.residency.cache_hits, 3);
  EXPECT_EQ(r2.stats.residency.fetches, 0);
  EXPECT_EQ(r2.stats.residency.bytes_avoided,
            3 * (n / 4) * static_cast<index_t>(sizeof(double)));
  // The manager-level sinks saw the insertions.
  EXPECT_GT(mgr.stats().residency.bytes_inserted, 0);
}

TEST(JobManagerTest, SegmentedSlicesSurviveAcrossJobsWithViewCounters) {
  ServiceOptions so;
  so.nranks = 4;
  so.max_concurrent = 1;
  so.slice_cache_bytes = std::size_t{64} << 20;
  JobManager mgr(so);

  // Power-law CSR: a few jumbo segments, many tiny ones.
  std::vector<index_t> offsets{0};
  std::vector<double> values;
  Xoshiro256 rng(52);
  for (index_t s = 0; s < 512; ++s) {
    const index_t len = (s % 32 == 0) ? 96 : 1 + s % 4;
    for (index_t k = 0; k < len; ++k) values.push_back(rng.uniform(-1.0, 1.0));
    offsets.push_back(static_cast<index_t>(values.size()));
  }
  dist::SegmentedDistArray<double> a(offsets, values);

  auto job = [&a](JobContext& ctx) {
    sched::SchedOptions opts;
    opts.policy = sched::SchedulePolicy::kStatic;
    opts.combine = sched::CombineMode::kOrdered;
    (void)dist::sum(ctx.comm(),
                    [&] {
                      return dist::transform(
                          dist::from_segmented(a),
                          [](const dist::Segment<double>& s) {
                            double acc = 0.0;
                            for (core::index_t k = 0; k < s.size(); ++k) {
                              acc += s[k];
                            }
                            return acc;
                          });
                    },
                    opts);
  };
  JobResult r1 = mgr.submit({"warm-seg"}, job).wait();
  ASSERT_TRUE(r1.ok) << r1.error;
  JobResult r2 = mgr.submit({"hot-seg"}, job).wait();
  ASSERT_TRUE(r2.ok) << r2.error;

  // Job 1 inlined both leaves (offsets + values) of each worker's grant
  // into the manager-owned caches; job 2 found all six resident. Because
  // the source is a fused view (two resident leaves), the avoided bytes are
  // also attributed to the per-job view counters.
  EXPECT_EQ(r1.stats.residency.slices_inlined, 6);
  EXPECT_EQ(r1.stats.residency.tokens_sent, 0);
  EXPECT_EQ(r1.stats.views.view_tokens, 0);
  EXPECT_EQ(r2.stats.residency.tokens_sent, 6);
  EXPECT_EQ(r2.stats.residency.cache_hits, 6);
  EXPECT_EQ(r2.stats.residency.fetches, 0);
  EXPECT_EQ(r2.stats.views.view_tokens, 6);
  EXPECT_GT(r2.stats.views.view_bytes_avoided, 0);
  EXPECT_EQ(r2.stats.views.view_bytes_avoided,
            r2.stats.residency.bytes_avoided);
}

// -- determinism under concurrency --------------------------------------------

TEST(JobManagerTest, OrderedReduceIsBitwiseIdenticalConcurrentVsSolo) {
  const int ranks = 4;
  const int jobs = 6;
  const index_t n = 4096;
  const index_t grain = 64;

  std::vector<Array1<double>> data;
  for (int j = 0; j < jobs; ++j) data.push_back(spiky_array(n, 60 + j));

  // Solo baselines: each job alone on a classic run-to-completion cluster.
  std::vector<double> solo(jobs, 0.0);
  for (int j = 0; j < jobs; ++j) {
    auto res = net::Cluster::run(ranks, [&](net::Comm& comm) {
      NodeRuntime node(1);
      sched::SchedOptions opts;
      opts.combine = sched::CombineMode::kOrdered;
      opts.grain = grain;
      double r = dist::reduce(comm, [&] { return from_array(data[j]); }, 0.0,
                              [](double a, double b) { return a + b; }, opts);
      if (comm.rank() == 0) solo[j] = r;
    });
    ASSERT_TRUE(res.ok) << res.error;
  }

  // The same jobs concurrently inside a busy service: different grant
  // interleavings, fair-share gating, shared pools — same bits.
  ServiceOptions so;
  so.nranks = ranks;
  so.max_concurrent = 3;
  JobManager mgr(so);
  std::vector<double> got(jobs, 0.0);
  std::vector<JobHandle> handles;
  for (int j = 0; j < jobs; ++j) {
    JobOptions jo;
    jo.name = "ordered-" + std::to_string(j);
    jo.weight = 1 + (j % 3);
    jo.batch_key = j >= 4 ? 9 : 0;  // a couple of them batched together
    handles.push_back(mgr.submit(jo, [&, j](JobContext& ctx) {
      sched::SchedOptions opts;
      opts.combine = sched::CombineMode::kOrdered;
      opts.grain = grain;
      double r = dist::reduce(ctx.comm(), [&] { return from_array(data[j]); },
                              0.0, [](double a, double b) { return a + b; },
                              ctx.sched_options(opts));
      if (ctx.rank() == 0) got[j] = r;
    }));
  }
  for (int j = 0; j < jobs; ++j) {
    JobResult r = handles[static_cast<std::size_t>(j)].wait();
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(bitwise_equal(got[j], solo[j]))
        << "job " << j << ": concurrent " << got[j] << " != solo " << solo[j];
  }
  mgr.drain();
}

}  // namespace
}  // namespace triolet::svc
