// The service probe: an open loop of independent users submitting to one
// svc::JobManager (2 ranks x 1 worker; one job group at a time, which with
// the rank threads fills the 4-thread budget). Arrivals are seeded Poisson
// at a fixed offered rate. The mix follows bench/bm_service.cpp: small
// latency-sensitive kOrdered reductions sharing a batch_key, so bursts
// coalesce, plus occasional large jobs that re-reduce one shared resident
// dataset and run a guided phase through the fair-share gate. Latency is
// timed from each job's due time. Fixed per-job costs dominate: admission,
// batching, band lease and purge, group spawn, grant arbitration and
// cross-job residency.
//
// It runs in the traced run of `sparse` and reports the svc layer. It is
// not an end-to-end workload: on a shared 4-vCPU KVM guest its median
// small-job latency moved between 1.0 and 5.1 ms from run to run with host
// load, far beyond any regression bound (see README.md).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/triolet.hpp"
#include "dist/dist_array.hpp"
#include "dist/skeletons.hpp"
#include "net/cluster.hpp"
#include "support/rng.hpp"
#include "support/timing.hpp"
#include "svc/job_manager.hpp"
#include "trace.hpp"

namespace perfbench {

namespace core = triolet::core;
namespace dist = triolet::dist;
namespace net = triolet::net;
namespace sched = triolet::sched;
namespace svc = triolet::svc;
using triolet::Array1;
using triolet::Stopwatch;
using triolet::index_t;

namespace {

constexpr index_t kSmallN = 1 << 12;    // doubles per small job
constexpr int kSmallSets = 64;          // distinct small-job datasets
constexpr index_t kLargeN = 1 << 16;    // records of the shared dataset
constexpr int kLargeRounds = 2;         // resident re-reductions per large job
constexpr double kLargeShare = 1.0 / 16;
constexpr index_t kOrderedGrain = 64;
/// Offered load, jobs/s: a fifth of the ~750 jobs/s this mix completes
/// when overloaded (large batches) on 2 ranks x 1 worker. Nearer half of
/// saturation, queueing amplified host stalls into run-to-run swings of
/// the median latency by 10x and more.
constexpr double kOfferedRate = 150.0;
constexpr double kProbeSeconds = 10.0;
/// Threads blocked in JobHandle::wait, stamping completions; more
/// outstanding jobs than this queue for a waiter.
constexpr int kWaiters = 16;

/// 64-byte record: the large jobs' scatter payload is bulk array data.
struct Wide {
  double v[8];
};

struct Arrival {
  double due_s = 0;
  bool large = false;
  int set = 0;  // small-job dataset
};

struct Inputs {
  std::vector<Array1<double>> small;
  Array1<Wide> large;
  std::vector<Arrival> arrivals;
};

Inputs make_inputs(std::uint64_t seed) {
  triolet::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + 21);
  Inputs in;
  for (int s = 0; s < kSmallSets; ++s) {
    Array1<double> xs(kSmallN);
    // Mixed magnitudes: any fold-order change shows in the low bits.
    for (index_t i = 0; i < kSmallN; ++i) {
      xs[i] = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-12.0, 12.0));
    }
    in.small.push_back(std::move(xs));
  }
  in.large = Array1<Wide>(kLargeN);
  for (index_t i = 0; i < kLargeN; ++i) {
    for (double& v : in.large[i].v) v = rng.uniform(0.0, 1.0);
  }
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.uniform()) / kOfferedRate;
    if (t >= kProbeSeconds) break;
    Arrival a;
    a.due_s = t;
    a.large = rng.uniform() < kLargeShare;
    a.set = static_cast<int>(rng.next() % kSmallSets);
    in.arrivals.push_back(a);
  }
  return in;
}

double small_body(net::Comm& comm, const Array1<double>& xs,
                  sched::SchedOptions opts) {
  opts.combine = sched::CombineMode::kOrdered;
  opts.grain = kOrderedGrain;
  return dist::reduce(comm, [&] { return core::from_array(xs); }, 0.0,
                      [](double a, double b) { return a + b; }, opts);
}

/// Static re-reductions of the shared resident dataset (warm jobs ship
/// residency tokens), then one guided kOrdered phase through the job's
/// fair-share gate.
double large_body(net::Comm& comm, const dist::DistArray<Wide>& d,
                  sched::SchedOptions opts) {
  auto make = [&] {
    return core::map(dist::from_resident(d),
                     [](const Wide& w) { return w.v[1] * 1.25 + w.v[3]; });
  };
  double acc = 0;
  for (int r = 0; r < kLargeRounds; ++r) acc += dist::sum(comm, make);
  opts.policy = sched::SchedulePolicy::kGuided;
  opts.combine = sched::CombineMode::kOrdered;
  return acc + dist::sum(comm, make, opts);
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

struct Pending {
  std::size_t idx;  // into arrivals
  svc::JobHandle handle;
};

}  // namespace

void probe_service(Report& rep, const Args& a, const Shape& shape) {
  const Inputs in = make_inputs(a.seed);
  const dist::DistArray<Wide> d{Array1<Wide>(in.large)};

  // Solo references: each small dataset and the large job alone on an
  // otherwise idle cluster.
  std::vector<double> small_ref(kSmallSets);
  double large_ref = 0;
  {
    ScopedSpan cs("net.Cluster::run");
    auto res = net::Cluster::run(shape.ranks, [&](net::Comm& comm) {
      dist::NodeRuntime node(shape.workers);
      for (int s = 0; s < kSmallSets; ++s) {
        const double r = small_body(comm, in.small[static_cast<std::size_t>(s)], {});
        if (comm.rank() == 0) small_ref[static_cast<std::size_t>(s)] = r;
      }
      const double r = large_body(comm, d, {});
      if (comm.rank() == 0) large_ref = r;
    });
    if (!res.ok) {
      rep.notes.push_back("service references failed: " + res.error);
      rep.tally.record(false);
      return;
    }
  }

  // Results land here from each job's rank-0 body, indexed by arrival (one
  // extra slot for the warm-up job).
  const std::size_t n = in.arrivals.size();
  std::vector<double> result(n + 1, 0.0);

  svc::ServiceOptions so;
  so.nranks = shape.ranks;
  so.threads_per_rank = shape.workers;
  so.max_concurrent = shape.groups;
  so.max_queued = 1024;
  so.batch_limit = 16;
  so.quantum_items = 1 << 10;
  std::optional<svc::JobManager> mgr;
  {
    ScopedSpan s("svc.JobManager");
    mgr.emplace(so);
  }

  auto submit = [&](std::size_t i, bool large, int set) {
    svc::JobOptions jo;
    jo.name = (large ? "large-" : "small-") + std::to_string(i);
    jo.weight = large ? 1 : 2;
    jo.batch_key = large ? 2 : 1;
    ScopedSpan sp("svc.JobManager::try_submit");
    return mgr->try_submit(jo, [&, i, large, set](svc::JobContext& ctx) {
      const double r =
          large ? large_body(ctx.comm(), d, ctx.sched_options())
                : small_body(ctx.comm(), in.small[static_cast<std::size_t>(set)],
                             ctx.sched_options());
      if (ctx.rank() == 0) result[i] = r;
    });
  };

  // Warm-up: the first large job ships the dataset into the manager's
  // caches, as the first user's job would. It is a checked op too.
  {
    auto h = submit(n, true, 0);
    const bool ok = h && h->wait().ok && same_bits(result[n], large_ref);
    rep.tally.record(ok);
    if (!ok) rep.notes.push_back("service warm-up job failed");
  }
  const svc::ServiceStats s0 = mgr->stats();

  // Completion stamps come from waiter threads blocked in
  // JobHandle::wait, one per outstanding job up to kWaiters: a job is
  // stamped when its handle wakes, not when the generator next looks.
  struct Done {
    std::size_t idx;
    double done_s;
    svc::JobResult r;
  };
  std::mutex mu;
  std::condition_variable cv_todo, cv_done;
  std::deque<Pending> todo;
  std::vector<Done> done;
  bool stop = false;
  Stopwatch clock;
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      thread_trace().on = a.trace;
      std::unique_lock<std::mutex> lock(mu);
      while (true) {
        cv_todo.wait(lock, [&] { return stop || !todo.empty(); });
        if (todo.empty()) return;
        Pending p = std::move(todo.front());
        todo.pop_front();
        lock.unlock();
        Done dn{p.idx, 0.0, {}};
        {
          ScopedSpan sp("svc.JobHandle::wait");
          dn.r = p.handle.wait();
          dn.done_s = clock.seconds();
          sp.add({{"svc.queued_s", dn.r.queued_seconds},
                  {"svc.run_s", dn.r.run_seconds}});
        }
        lock.lock();
        done.push_back(std::move(dn));
        cv_done.notify_one();
      }
    });
  }

  std::vector<double> small_lat, large_lat, late, queued, run, overhead,
      large_run;
  double fs_waits = 0, fs_wait_s = 0;
  std::size_t submitted = 0, finished = 0;
  auto finish = [&](const Done& dn) {
    finished += 1;
    const Arrival& arr = in.arrivals[dn.idx];
    const svc::JobResult& r = dn.r;
    const bool ok =
        r.ok && same_bits(result[dn.idx],
                          arr.large ? large_ref
                                    : small_ref[static_cast<std::size_t>(arr.set)]);
    rep.tally.record(ok);
    if (!ok) {
      rep.notes.push_back("job " + std::to_string(dn.idx) + " failed: " +
                          (r.ok ? std::string("wrong result") : r.error));
      return;
    }
    const double latency = dn.done_s - arr.due_s;
    fs_waits += static_cast<double>(r.fair_share.waits);
    fs_wait_s += r.fair_share.wait_seconds;
    if (arr.large) {
      large_lat.push_back(latency);
      large_run.push_back(r.run_seconds);
    } else {
      small_lat.push_back(latency);
      queued.push_back(r.queued_seconds);
      run.push_back(r.run_seconds);
      overhead.push_back(latency - r.queued_seconds - r.run_seconds);
    }
  };
  auto take_done = [&] {
    std::vector<Done> batch;
    {
      std::lock_guard<std::mutex> lock(mu);
      batch.swap(done);
    }
    for (const Done& dn : batch) finish(dn);
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& arr = in.arrivals[i];
    take_done();
    for (double left; (left = arr.due_s - clock.seconds()) > 0;) {
      std::this_thread::sleep_for(std::chrono::duration<double>(left));
    }
    late.push_back(clock.seconds() - arr.due_s);
    auto h = submit(i, arr.large, arr.set);
    if (!h) {
      rep.tally.record(false);
      rep.notes.push_back("job " + std::to_string(i) + " refused");
      continue;
    }
    submitted += 1;
    {
      std::lock_guard<std::mutex> lock(mu);
      todo.push_back({i, std::move(*h)});
    }
    cv_todo.notify_one();
  }
  while (finished < submitted) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv_done.wait(lock, [&] { return !done.empty(); });
    }
    take_done();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    stop = true;
  }
  cv_todo.notify_all();
  for (auto& w : waiters) w.join();
  const double makespan = clock.seconds();
  mgr->drain();
  const svc::ServiceStats s1 = mgr->stats();

  const double jobs = static_cast<double>(std::max<std::size_t>(1, n));
  auto per_job = [&](std::int64_t end, std::int64_t begin) {
    return static_cast<double>(end - begin) / jobs;
  };
  rep.notes.push_back(
      "service probe: " + std::to_string(n) + " jobs offered at " +
      std::to_string(static_cast<int>(kOfferedRate)) + "/s, " +
      std::to_string(small_lat.size()) + " small + " + std::to_string(large_lat.size()) + " large completed in " +
      std::to_string(makespan) + " s");
  rep.add("svc.small_p50_s", stats(small_lat).median);
  rep.add("svc.small_p90_s", tail_percentile(small_lat, 0.9).value_or(0.0));
  rep.add("svc.large_p50_s", stats(large_lat).median);
  rep.add("svc.queued_s", stats(queued).mean);
  rep.add("svc.run_s", stats(run).mean);
  rep.add("svc.overhead_s", stats(overhead).mean);
  rep.add("svc.large_run_s", stats(large_run).mean);
  rep.add("svc.batches", per_job(s1.batches, s0.batches));
  rep.add("svc.batched_jobs", per_job(s1.batched_jobs, s0.batched_jobs));
  rep.add("svc.bands_leased", per_job(s1.bands_leased, s0.bands_leased));
  rep.add("svc.peak_concurrent", s1.peak_concurrent);
  rep.add("svc.rejected", per_job(s1.rejected, s0.rejected));
  rep.add("svc.failed", per_job(s1.failed, s0.failed));
  rep.add("svc.fair_share_waits", fs_waits / jobs);
  rep.add("svc.fair_share_wait_s", fs_wait_s / jobs);
  rep.add("svc.late_p90_s", tail_percentile(late, 0.9).value_or(0.0));
}

}  // namespace perfbench
