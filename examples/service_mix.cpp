// A Triolet service serving a mixed job stream.
//
// One resident JobManager (4 ranks) takes submissions from two tenants: a
// burst of small latency-sensitive analytics jobs (kOrdered reduces, so
// their answers are bit-reproducible) and two heavyweight jobs that rescan
// one shared resident dataset. The small jobs share a batch_key, so the
// manager coalesces them into batch groups; the large jobs run concurrently
// in slots of their own, each slot a private transport fabric.
//
// The example prints a per-job table (queue time, run time, slot, batch
// company, grants the root served) and self-validates: every small job's
// result must be bitwise identical to the same reduction run solo in its
// own Cluster::run, and all jobs must succeed.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/triolet.hpp"
#include "dist/dist_array.hpp"
#include "dist/skeletons.hpp"
#include "net/cluster.hpp"
#include "support/rng.hpp"
#include "svc/job_manager.hpp"

using namespace triolet;
using core::index_t;

namespace {

// Mixed-magnitude values: any change in fold order would flip low bits.
Array1<double> spiky(index_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Array1<double> a(n);
  for (index_t i = 0; i < n; ++i) {
    a[i] = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-9.0, 9.0));
  }
  return a;
}

double ordered_sum(net::Comm& comm, const Array1<double>& xs) {
  sched::SchedOptions opts;
  opts.combine = sched::CombineMode::kOrdered;
  opts.grain = 32;
  return dist::reduce(comm, [&] { return core::from_array(xs); }, 0.0,
                      [](double a, double b) { return a + b; }, opts);
}

}  // namespace

int main() {
  const int n_small = 6;
  const index_t small_n = 2048;
  const index_t large_n = 1 << 15;

  std::vector<Array1<double>> small_data;
  for (int i = 0; i < n_small; ++i) {
    small_data.push_back(spiky(small_n, 1000 + static_cast<std::uint64_t>(i)));
  }
  Array1<double> dataset(large_n);
  for (index_t i = 0; i < large_n; ++i) {
    dataset[i] = 1e-6 * static_cast<double>((i * 31) % 4093);
  }
  dist::DistArray<double> resident{dataset};

  // Ground truth: each small job alone in a throwaway cluster.
  std::vector<double> solo(static_cast<std::size_t>(n_small), 0.0);
  for (int i = 0; i < n_small; ++i) {
    auto res = net::Cluster::run(4, [&](net::Comm& comm) {
      dist::NodeRuntime node(1);
      double r = ordered_sum(comm, small_data[static_cast<std::size_t>(i)]);
      if (comm.rank() == 0) solo[static_cast<std::size_t>(i)] = r;
    });
    if (!res.ok) {
      std::fprintf(stderr, "solo run failed: %s\n", res.error.c_str());
      return 1;
    }
  }

  svc::ServiceOptions so;
  so.nranks = 4;
  so.max_concurrent = 3;
  so.batch_limit = 4;
  svc::JobManager mgr(so);

  std::vector<double> served(static_cast<std::size_t>(n_small), 0.0);
  std::vector<std::pair<std::string, svc::JobHandle>> handles;

  // The large tenant: scheduled guided scans of the shared resident
  // dataset.
  auto scan_body = [&](svc::JobContext& ctx) {
    sched::SchedOptions opts;
    opts.policy = sched::SchedulePolicy::kGuided;
    for (int round = 0; round < 3; ++round) {
      (void)dist::sum(ctx.comm(), [&] {
        return core::map(dist::from_resident(resident),
                         [](double x) { return x * 1.5 + 1.0; });
      });
    }
    (void)dist::reduce(ctx.comm(), [&] {
      return core::map(dist::from_resident(resident),
                       [](double x) { return x * x; });
    }, 0.0, [](double a, double b) { return a + b; }, opts);
  };
  svc::JobOptions scan0;
  scan0.name = "scan-0";
  handles.emplace_back(scan0.name, mgr.submit(scan0, scan_body));

  // The small tenant: batched kOrdered jobs.
  for (int i = 0; i < n_small; ++i) {
    svc::JobOptions jo;
    jo.name = "small-" + std::to_string(i);
    jo.batch_key = 1;
    handles.emplace_back(jo.name, mgr.submit(jo, [&, i](svc::JobContext& ctx) {
      double r =
          ordered_sum(ctx.comm(), small_data[static_cast<std::size_t>(i)]);
      if (ctx.rank() == 0) served[static_cast<std::size_t>(i)] = r;
    }));
  }

  // A second scan of the same dataset, submitted once the first is done:
  // it lands in a fresh group (new Comm), so its rescatter collapses to
  // residency tokens against the slices scan-0 left in the manager-owned
  // per-rank caches — the cross-job residency win.
  handles[0].second.wait();
  svc::JobOptions scan1;
  scan1.name = "scan-1";
  handles.emplace_back(scan1.name, mgr.submit(scan1, scan_body));

  std::printf("%-8s  %-5s  %9s  %9s  %6s  %7s  %6s  %6s\n", "job", "ok",
              "queued(s)", "run(s)", "slot", "batched", "grants", "tokens");
  bool all_ok = true;
  std::int64_t scan1_tokens = 0;
  for (auto& [name, h] : handles) {
    svc::JobResult r = h.wait();
    all_ok = all_ok && r.ok;
    if (name == "scan-1") scan1_tokens = r.stats.residency.tokens_sent;
    std::printf("%-8s  %-5s  %9.4f  %9.4f  %6d  %7d  %6lld  %6lld\n",
                name.c_str(), r.ok ? "yes" : "NO", r.queued_seconds,
                r.run_seconds, r.slot, r.batched_with,
                static_cast<long long>(r.stats.sched.grants_served),
                static_cast<long long>(r.stats.residency.tokens_sent));
  }
  mgr.drain();
  auto s = mgr.stats();
  std::printf("\nservice: %lld jobs, %lld batches (%lld jobs batched), "
              "peak %d groups, %lld groups in all\n",
              static_cast<long long>(s.completed),
              static_cast<long long>(s.batches),
              static_cast<long long>(s.batched_jobs), s.peak_concurrent,
              static_cast<long long>(s.bands_leased));

  if (!all_ok) {
    std::fprintf(stderr, "a job failed\n");
    return 1;
  }
  if (scan1_tokens == 0) {
    std::fprintf(stderr, "scan-1 re-shipped the dataset (no tokens)\n");
    return 1;
  }
  for (int i = 0; i < n_small; ++i) {
    if (std::memcmp(&solo[static_cast<std::size_t>(i)],
                    &served[static_cast<std::size_t>(i)],
                    sizeof(double)) != 0) {
      std::fprintf(stderr, "small-%d diverged from its solo run\n", i);
      return 1;
    }
  }
  std::printf("all small-job results bitwise identical to solo runs\n");
  return 0;
}
