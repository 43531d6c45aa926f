// Tests for the service layer (src/svc/): admission/backpressure and
// batching in the JobManager, slot isolation (concurrent jobs on the same
// tags never cross-match, and a reused slot starts clean), per-job stats
// attribution, failure isolation between concurrent jobs, and the
// bitwise-determinism contract: a kOrdered job run inside a busy service
// equals the same job run alone. A slot's purge racing live traffic in
// another slot is test_msgplane's BandPurge case.

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
#include "sched/tuner.hpp"
#include "support/rng.hpp"
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
  so.max_concurrent = 3;
  JobManager mgr(so);

  std::atomic<bool> release_a{false}, release_b{false};
  std::atomic<int> started{0};
  auto blocker = [&](std::atomic<bool>& release) {
    return [&](JobContext& ctx) {
      if (ctx.rank() == 0) started.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      ctx.comm().barrier();
    };
  };
  JobHandle a = mgr.submit({"a"}, blocker(release_a));
  JobHandle b = mgr.submit({"b"}, blocker(release_b));
  while (started.load() < 2) std::this_thread::yield();

  // Two groups at once hold distinct slots, lowest first.
  release_a.store(true);
  JobResult ra = a.wait();
  EXPECT_TRUE(ra.ok) << ra.error;
  EXPECT_EQ(ra.slot, 0);
  // a's group returns its slot in the same step that counts it completed.
  while (mgr.stats().completed < 1) std::this_thread::yield();

  // b still holds slot 1: the next group reuses slot 0, the lowest free
  // one, not slot 2, which no group has used yet.
  JobResult rc =
      mgr.submit({"c"}, [](JobContext& ctx) { ctx.comm().barrier(); }).wait();
  EXPECT_TRUE(rc.ok) << rc.error;
  EXPECT_EQ(rc.slot, 0);

  release_b.store(true);
  JobResult rb = b.wait();
  EXPECT_TRUE(rb.ok) << rb.error;
  EXPECT_EQ(rb.slot, 1);
  mgr.drain();
  EXPECT_EQ(mgr.stats().peak_concurrent, 2);
  EXPECT_EQ(mgr.stats().bands_leased, 3);
}

TEST(JobManagerTest, ConcurrentJobsWithTheSameTagsNeverCrossMatch) {
  // Two jobs run at once on the same canonical tags: user tag 7, a
  // (kAnySource, kAnyTag) receive, and one kOrdered dist::sum each, whose
  // scheduler epochs and collective rounds are the same tags in both jobs.
  // Each job's slot is a fabric of its own, so each sees only its own
  // messages, and its sum equals the same sum run alone.
  const int ranks = 2;
  std::vector<Array1<double>> data{spiky_array(4096, 71),
                                   spiky_array(4096, 72)};
  sched::SchedOptions opts;
  opts.combine = sched::CombineMode::kOrdered;
  opts.grain = 64;

  std::vector<double> solo(2, 0.0);
  for (std::size_t j = 0; j < 2; ++j) {
    auto res = net::Cluster::run(ranks, [&](net::Comm& comm) {
      NodeRuntime node(1);
      double r = dist::sum(comm, [&] { return from_array(data[j]); }, opts);
      if (comm.rank() == 0) solo[j] = r;
    });
    ASSERT_TRUE(res.ok) << res.error;
  }

  ServiceOptions so;
  so.nranks = ranks;
  so.max_concurrent = 2;
  JobManager mgr(so);

  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  std::vector<std::uint64_t> seen(2 * ranks, 0);  // [job * ranks + rank]
  std::vector<int> seen_tag(2 * ranks, -1);
  std::vector<double> got(2, 0.0);
  auto job = [&](std::size_t j) {
    return [&, j](JobContext& ctx) {
      if (ctx.rank() == 0) started.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      net::Comm& comm = ctx.comm();
      comm.send(1 - ctx.rank(), 7, ctx.job_id());
      net::Message m = comm.recv_message(net::kAnySource, net::kAnyTag);
      const std::size_t at = j * ranks + static_cast<std::size_t>(ctx.rank());
      seen[at] = serial::from_bytes<std::uint64_t>(m.payload);
      seen_tag[at] = m.tag;
      double r = dist::sum(comm, [&] { return from_array(data[j]); }, opts);
      if (ctx.rank() == 0) got[j] = r;
    };
  };
  JobHandle a = mgr.submit({"a"}, job(0));
  JobHandle b = mgr.submit({"b"}, job(1));
  // Both groups hold a slot before either sends a message.
  while (started.load() < 2) std::this_thread::yield();
  release.store(true);
  JobResult ra = a.wait(), rb = b.wait();
  ASSERT_TRUE(ra.ok) << ra.error;
  ASSERT_TRUE(rb.ok) << rb.error;
  EXPECT_NE(ra.slot, rb.slot);
  const std::uint64_t ids[] = {ra.job_id, rb.job_id};
  for (std::size_t j = 0; j < 2; ++j) {
    for (int r = 0; r < ranks; ++r) {
      const std::size_t at = j * ranks + static_cast<std::size_t>(r);
      EXPECT_EQ(seen[at], ids[j]) << "job " << j << " rank " << r;
      EXPECT_EQ(seen_tag[at], 7) << "job " << j << " rank " << r;
    }
    EXPECT_TRUE(bitwise_equal(got[j], solo[j]))
        << "job " << j << ": concurrent " << got[j] << " != solo " << solo[j];
  }
}

TEST(JobManagerTest, AReusedSlotStartsWithNoStrandedTraffic) {
  // One slot, so the second job runs on the fabric the failed first job
  // left behind. The purge must have swept its stranded eager and
  // rendezvous messages (some possibly still in ring slots) back to the
  // buffer pool, and the slot's abort flag must be clear, or the second
  // job would find them, or stop before its body runs.
  const std::int64_t pool_before = net::BufferPool::instance().outstanding();
  {
    ServiceOptions so;
    so.nranks = 2;
    so.max_concurrent = 1;
    JobManager mgr(so);

    JobResult failed = mgr.submit({"strander"}, [](JobContext& ctx) {
      const int peer = 1 - ctx.rank();
      ctx.comm().send(peer, 50, std::vector<char>(16, 'x'));
      ctx.comm().send(peer, 50, std::vector<double>(4096, 2.0));
      ctx.comm().barrier();
      if (ctx.rank() == 1) throw std::runtime_error("stranded traffic");
      (void)ctx.comm().recv<int>(peer, 60);  // never sent; the abort wakes it
    }).wait();
    EXPECT_FALSE(failed.ok);
    EXPECT_NE(failed.error.find("stranded traffic"), std::string::npos)
        << failed.error;

    std::atomic<int> found_empty{0};
    JobResult next = mgr.submit({"next"}, [&](JobContext& ctx) {
      if (!ctx.comm().try_recv_message(net::kAnySource, 50)) {
        found_empty.fetch_add(1);
      }
      ctx.comm().barrier();
    }).wait();
    ASSERT_TRUE(next.ok) << next.error;
    EXPECT_EQ(next.slot, failed.slot);
    EXPECT_EQ(found_empty.load(), 2);
  }
  EXPECT_EQ(net::BufferPool::instance().outstanding(), pool_before)
      << "the slot purge or transport teardown leaked pooled buffers";
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
      double r = dist::sum(ctx.comm(), [&] { return from_array(xs); }, opts);
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

TEST(JobManagerTest, BatchedJobsWithOneTuneKeyShareOneTuner) {
  // Jobs batched into one group run one after another on the same Comms,
  // so the registry behind SchedulePolicy::kAuto's implicit tuner carries
  // the first job's rounds into the second when both use one tune_key.
  ServiceOptions so;
  so.nranks = 2;
  so.max_concurrent = 1;
  so.batch_limit = 2;
  JobManager mgr(so);

  // Park the dispatcher slot so both kAuto jobs queue and form one group.
  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  JobHandle parked = mgr.submit({"parked"}, [&](JobContext& ctx) {
    if (ctx.rank() == 0) started.fetch_add(1);
    while (!release.load()) std::this_thread::yield();
    ctx.comm().barrier();
  });
  while (started.load() == 0) std::this_thread::yield();

  auto xs = random_array(4096, 23);
  const sched::SchedOptions opts = dist::auto_options(/*tune_key=*/5);
  std::vector<int> rounds_at_start(2 * so.nranks, -1);
  std::vector<JobHandle> handles;
  for (int j = 0; j < 2; ++j) {
    JobOptions jo;
    jo.name = "auto-" + std::to_string(j);
    jo.batch_key = 3;
    handles.push_back(mgr.submit(jo, [&, j](JobContext& ctx) {
      rounds_at_start[static_cast<std::size_t>(j * so.nranks + ctx.rank())] =
          sched::detail::tuner_for(ctx.comm(), opts).rounds();
      (void)dist::sum(ctx.comm(), [&] { return from_array(xs); }, opts);
    }));
  }
  release.store(true);
  EXPECT_TRUE(parked.wait().ok);
  for (auto& h : handles) {
    JobResult r = h.wait();
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.batched_with, 1) << "the two jobs did not share a group";
  }
  for (int r = 0; r < so.nranks; ++r) {
    EXPECT_EQ(rounds_at_start[static_cast<std::size_t>(r)], 0) << "rank " << r;
    EXPECT_GT(rounds_at_start[static_cast<std::size_t>(so.nranks + r)], 0)
        << "rank " << r;
  }
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
      (void)dist::sum(ctx.comm(), [&] { return from_array(xs); }, opts);
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
  EXPECT_GE(ra.run_seconds, 0.0);
  EXPECT_GE(ra.queued_seconds, 0.0);
}

// -- JobManager: failure isolation --------------------------------------------

TEST(JobManagerTest, AFailingJobDoesNotPoisonItsNeighbors) {
  // Pool-leak check: a failing job strands traffic — queued eager slabs and
  // rendezvous nodes, possibly still sitting in ring slots — and the slot
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
      // Rank 0 blocks on a message that never comes; the slot's abort must
      // wake it (ClusterAborted), not hang it.
      (void)ctx.comm().recv<int>(1, 17);
    });
    JobHandle good = mgr.submit({"good"}, [&xs](JobContext& ctx) {
      sched::SchedOptions opts;
      opts.grain = 512;
      (void)dist::sum(ctx.comm(), [&] { return from_array(xs); }, opts);
    });

    JobResult rb = bad.wait();
    EXPECT_FALSE(rb.ok);
    EXPECT_NE(rb.error.find("synthetic job failure"), std::string::npos)
        << rb.error;
    JobResult rg = good.wait();
    EXPECT_TRUE(rg.ok) << rg.error;

    // The failed group's slot was purged and returned; it serves the next
    // group (the lowest free slot), and the service keeps serving.
    mgr.drain();
    JobHandle after = mgr.submit({"after"}, [](JobContext& ctx) {
      ctx.comm().barrier();
    });
    JobResult ra = after.wait();
    EXPECT_TRUE(ra.ok) << ra.error;
    EXPECT_EQ(ra.slot, rb.slot);
    mgr.drain();  // handle fulfillment precedes the aggregate-stats update
    ServiceStats s = mgr.stats();
    EXPECT_EQ(s.failed, 1);
    EXPECT_EQ(s.completed, 2);
  }
  EXPECT_EQ(net::BufferPool::instance().outstanding(), pool_before)
      << "slot purge / transport teardown leaked pooled buffers";
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

  JobOptions a{.name = "first", .batch_key = 5};
  JobOptions b{.name = "boom", .batch_key = 5};
  JobOptions c{.name = "skipped", .batch_key = 5};
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
  // interleavings, shared pools — same bits.
  ServiceOptions so;
  so.nranks = ranks;
  so.max_concurrent = 3;
  JobManager mgr(so);
  std::vector<double> got(jobs, 0.0);
  std::vector<JobHandle> handles;
  for (int j = 0; j < jobs; ++j) {
    JobOptions jo;
    jo.name = "ordered-" + std::to_string(j);
    jo.batch_key = j >= 4 ? 9 : 0;  // a couple of them batched together
    handles.push_back(mgr.submit(jo, [&, j](JobContext& ctx) {
      sched::SchedOptions opts;
      opts.combine = sched::CombineMode::kOrdered;
      opts.grain = grain;
      double r = dist::reduce(ctx.comm(), [&] { return from_array(data[j]); },
                              0.0, [](double a, double b) { return a + b; },
                              opts);
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
