// The service layer vs run-to-completion serialization on a mixed job
// stream at 8 ranks.
//
// The workload models a shared analytics cluster: a stream of small
// latency-sensitive jobs (scatter + reduce over a few KB) interleaved with
// a handful of large jobs that re-analyze one resident dataset (scheduled,
// fair-share-gated reductions over a wide record array). The baseline is
// what the pre-service system offers: every job is its own Cluster::run —
// fresh rank threads, fresh per-rank pools, cold slice
// caches — and jobs run strictly one after another, so a small job's
// latency includes every job submitted before it.
//
// The service run submits the same stream to one resident JobManager:
// small jobs coalesce into batch groups (amortizing group spawn), up to
// max_concurrent groups run at once under per-job tag-band isolation, the
// large jobs' repeated scatters of the shared dataset collapse to residency
// tokens after the first (manager-owned per-rank caches), and the grant
// arbiter keeps the large jobs from monopolizing the scheduler.
//
// Measured: job throughput (jobs / makespan) and per-job latency
// (completion time since the stream started; queued + run for the service).
// The isolation machinery is semantics-free, so every job's kOrdered
// reduction must be bitwise identical across baseline, service, and a solo
// run — checked, not assumed.
//
// Flags: --ranks=N --check (CI smoke mode: small problem, no timing
// thresholds, exit 1 unless the structural checks and the bitwise identity
// hold).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/driver.hpp"
#include "bench_problems.hpp"
#include "core/triolet.hpp"
#include "dist/dist_array.hpp"
#include "dist/skeletons.hpp"
#include "net/cluster.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/timing.hpp"
#include "svc/job_manager.hpp"

using namespace triolet;
using core::index_t;

namespace {

/// 64-byte trivially-copyable record: the large jobs' scatter payload is
/// bulk array data, so avoiding its re-send across jobs is the game.
struct Wide {
  double v[8];
};
static_assert(sizeof(Wide) == 64);

Array1<Wide> make_items(index_t n) {
  Array1<Wide> items(n);
  for (index_t i = 0; i < n; ++i) {
    Wide w{};
    for (int k = 0; k < 8; ++k) {
      w.v[k] = 1e-3 * static_cast<double>((i * 13 + k * 7) % 1009);
    }
    items[i] = w;
  }
  return items;
}

/// Mixed-magnitude doubles: any fold-order change shows in the low bits.
Array1<double> spiky_array(index_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Array1<double> a(n);
  for (index_t i = 0; i < n; ++i) {
    a[i] = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-12.0, 12.0));
  }
  return a;
}

struct Workload {
  int n_small = 0;
  int n_large = 0;
  index_t small_n = 0;
  index_t large_n = 0;
  int large_rounds = 0;
  index_t ordered_grain = 64;
  std::vector<Array1<double>> small_data;  // one spiky array per small job
  Array1<Wide> large_items;                // the shared resident dataset
};

/// Submission order: one large job, then a burst of small ones, repeated —
/// the arrival pattern under which run-to-completion hurts small jobs most.
struct JobSpec {
  bool large = false;
  int idx = 0;  // index among its kind
};

std::vector<JobSpec> job_stream(const Workload& w) {
  std::vector<JobSpec> stream;
  const int burst = std::max(1, w.n_small / std::max(1, w.n_large));
  int s = 0;
  for (int l = 0; l < w.n_large; ++l) {
    stream.push_back({true, l});
    for (int k = 0; k < burst && s < w.n_small; ++k, ++s) {
      stream.push_back({false, s});
    }
  }
  for (; s < w.n_small; ++s) stream.push_back({false, s});
  return stream;
}

/// The small-job body: kOrdered spiky reduce — latency-sensitive AND a
/// bitwise determinism witness. Returns the rank-0 result.
double small_body(net::Comm& comm, const Workload& w, int idx,
                  const sched::SchedOptions& base) {
  sched::SchedOptions opts = base;
  opts.combine = sched::CombineMode::kOrdered;
  opts.grain = w.ordered_grain;
  const auto& xs = w.small_data[static_cast<std::size_t>(idx)];
  return dist::reduce(comm, [&] { return core::from_array(xs); }, 0.0,
                      [](double a, double b) { return a + b; }, opts);
}

/// The large-job body: `large_rounds` scatter-based reductions over the
/// shared resident dataset (static per-rank blocks, so slices cached by an
/// earlier job tokenize here — the cross-job residency win), then one
/// demand-scheduled guided reduction that runs through the job's fair-share
/// grant gate. Returns the rank-0 result of the last round.
double large_body(net::Comm& comm, const Workload& w,
                  dist::DistArray<Wide>& d, const sched::SchedOptions& base) {
  auto make = [&] {
    return core::map(dist::from_resident(d), [](const Wide& x) {
      return x.v[1] * 1.25 + x.v[3];
    });
  };
  for (int r = 0; r < w.large_rounds; ++r) (void)dist::sum(comm, make);
  // The demand-scheduled phase is compute-shaped (grants carry ranges, not
  // payloads), the regime where grant arbitration across jobs matters.
  sched::SchedOptions opts = base;
  opts.policy = sched::SchedulePolicy::kGuided;
  const index_t n = w.large_n;
  return dist::sum(comm,
                   [&] {
                     return core::map(core::range(0, n), [](index_t i) {
                       return 1e-9 * static_cast<double>((i * 2654435761u) &
                                                         0xffff);
                     });
                   },
                   opts);
}

struct StreamResult {
  double makespan = 0.0;
  std::vector<double> small_latency;  // completion since stream start
  std::vector<double> large_latency;
  std::vector<double> small_results;  // rank-0 kOrdered results, per job
  std::int64_t bytes_sent = 0;
  net::ResidencyStats residency{};  // service: manager sinks + per-job
};

/// Run-to-completion baseline: every job is its own Cluster::run, jobs
/// strictly sequential, caches cold per job. Latency of job i is the sum of
/// the runtimes of jobs 0..i.
StreamResult run_serialized(int ranks, const Workload& w) {
  net::set_slice_cache_budget(std::size_t{256} << 20);
  dist::DistArray<Wide> d{Array1<Wide>(w.large_items)};
  StreamResult out;
  out.small_results.resize(static_cast<std::size_t>(w.n_small), 0.0);
  double clock = 0.0;
  for (const JobSpec& js : job_stream(w)) {
    Stopwatch sw;
    double r0 = 0;
    auto res = net::Cluster::run(ranks, [&](net::Comm& comm) {
      dist::NodeRuntime node(1);
      double r = js.large ? large_body(comm, w, d, {})
                          : small_body(comm, w, js.idx, {});
      if (comm.rank() == 0) r0 = r;
    });
    if (!res.ok) {
      std::fprintf(stderr, "baseline job failed: %s\n", res.error.c_str());
      std::exit(1);
    }
    clock += sw.seconds();
    out.bytes_sent += res.total_stats.bytes_sent;
    if (js.large) {
      out.large_latency.push_back(clock);
    } else {
      out.small_latency.push_back(clock);
      out.small_results[static_cast<std::size_t>(js.idx)] = r0;
    }
  }
  out.makespan = clock;
  net::set_slice_cache_budget(~std::size_t{0});
  return out;
}

/// Service mode: the same stream submitted to one resident JobManager.
/// Latency of a job is its queued + run time (submission is effectively
/// instantaneous at stream start).
StreamResult run_service(int ranks, const Workload& w) {
  svc::ServiceOptions so;
  so.nranks = ranks;
  so.threads_per_rank = 1;
  so.max_concurrent = 3;
  so.batch_limit = 12;
  so.max_queued = 256;
  so.quantum_items = 1 << 10;
  so.slice_cache_bytes = std::size_t{256} << 20;
  svc::JobManager mgr(so);

  dist::DistArray<Wide> d{Array1<Wide>(w.large_items)};
  StreamResult out;
  out.small_results.resize(static_cast<std::size_t>(w.n_small), 0.0);
  std::vector<double> small_res(static_cast<std::size_t>(w.n_small), 0.0);

  std::vector<std::pair<JobSpec, svc::JobHandle>> handles;
  Stopwatch wall;
  for (const JobSpec& js : job_stream(w)) {
    svc::JobOptions jo;
    if (js.large) {
      jo.name = "large-" + std::to_string(js.idx);
      jo.weight = 1;
      jo.batch_key = 2;  // large jobs share one group, smalls overlap it
      handles.emplace_back(
          js, mgr.submit(jo, [&w, &d](svc::JobContext& ctx) {
            (void)large_body(ctx.comm(), w, d, ctx.sched_options());
          }));
    } else {
      jo.name = "small-" + std::to_string(js.idx);
      jo.weight = 2;       // latency-sensitive: extra fair-share credit
      jo.batch_key = 1;    // small jobs may share a group
      const int idx = js.idx;
      handles.emplace_back(
          js, mgr.submit(jo, [&w, &small_res, idx](svc::JobContext& ctx) {
            double r = small_body(ctx.comm(), w, idx, ctx.sched_options());
            if (ctx.rank() == 0) {
              small_res[static_cast<std::size_t>(idx)] = r;
            }
          }));
    }
  }
  mgr.drain();
  out.makespan = wall.seconds();

  for (auto& [js, h] : handles) {
    svc::JobResult r = h.wait();
    if (!r.ok) {
      std::fprintf(stderr, "service job failed: %s\n", r.error.c_str());
      std::exit(1);
    }
    const double latency = r.queued_seconds + r.run_seconds;
    out.bytes_sent += r.stats.messages_sent > 0 ? r.stats.bytes_sent : 0;
    out.residency += r.stats.residency;
    if (js.large) {
      out.large_latency.push_back(latency);
    } else {
      out.small_latency.push_back(latency);
    }
  }
  out.small_results = small_res;
  return out;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(xs.size()))) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  int ranks = bench::kNodes;
  bool check_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--ranks=", 0) == 0) {
      ranks = std::atoi(arg.c_str() + 8);
    } else if (arg == "--check") {
      check_only = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  Workload w;
  w.n_small = check_only ? 12 : 48;
  w.n_large = check_only ? 3 : 6;
  w.small_n = 1 << 12;
  w.large_n = check_only ? (1 << 15) : (1 << 18);  // 2 MiB / 16 MiB
  w.large_rounds = 2;
  for (int s = 0; s < w.n_small; ++s) {
    w.small_data.push_back(
        spiky_array(w.small_n, 100 + static_cast<std::uint64_t>(s)));
  }
  w.large_items = make_items(w.large_n);

  std::printf("== bm_service: multi-job service vs run-to-completion, "
              "%d ranks, %d small + %d large jobs ==\n",
              ranks, w.n_small, w.n_large);

  // Solo witnesses for the bitwise check: each small job alone on an
  // otherwise idle classic cluster.
  std::vector<double> solo(static_cast<std::size_t>(w.n_small), 0.0);
  for (int s = 0; s < w.n_small; ++s) {
    double r0 = 0;
    auto res = net::Cluster::run(ranks, [&](net::Comm& comm) {
      dist::NodeRuntime node(1);
      double r = small_body(comm, w, s, {});
      if (comm.rank() == 0) r0 = r;
    });
    if (!res.ok) {
      std::fprintf(stderr, "solo job failed: %s\n", res.error.c_str());
      return 1;
    }
    solo[static_cast<std::size_t>(s)] = r0;
  }

  // Warm-up (first-touch faults, lazy init), then measure both modes.
  {
    Workload tiny = w;
    tiny.n_small = 4;
    tiny.n_large = 1;
    (void)run_serialized(ranks, tiny);
    (void)run_service(ranks, tiny);
  }
  StreamResult base = run_serialized(ranks, w);
  StreamResult serv = run_service(ranks, w);

  const int jobs = w.n_small + w.n_large;
  const double thr_base = jobs / base.makespan;
  const double thr_serv = jobs / serv.makespan;
  const double thr_speedup = thr_serv / thr_base;
  const double p99_base = percentile(base.small_latency, 0.99);
  const double p99_serv = percentile(serv.small_latency, 0.99);
  const double p50_base = percentile(base.small_latency, 0.50);
  const double p50_serv = percentile(serv.small_latency, 0.50);

  Table t({"mode", "makespan (s)", "jobs/s", "small p50 (s)", "small p99 (s)",
           "bytes sent"});
  t.add_row({"run-to-completion", Table::num(base.makespan, 4),
             Table::num(thr_base, 1), Table::num(p50_base, 4),
             Table::num(p99_base, 4), Table::num(base.bytes_sent)});
  t.add_row({"service", Table::num(serv.makespan, 4), Table::num(thr_serv, 1),
             Table::num(p50_serv, 4), Table::num(p99_serv, 4),
             Table::num(serv.bytes_sent)});
  t.print("mixed stream, " + std::to_string(jobs) + " jobs, " +
          std::to_string(ranks) + " ranks");
  std::printf("job throughput: %.2fx; small-job p99: %.4fs -> %.4fs "
              "(%.2fx lower)\n",
              thr_speedup, p99_base, p99_serv,
              p99_serv > 0 ? p99_base / p99_serv : 0.0);

  bool all_bitwise = true;
  for (int s = 0; s < w.n_small; ++s) {
    const auto i = static_cast<std::size_t>(s);
    all_bitwise = all_bitwise &&
                  std::memcmp(&base.small_results[i], &solo[i],
                              sizeof(double)) == 0 &&
                  std::memcmp(&serv.small_results[i], &solo[i],
                              sizeof(double)) == 0;
  }

  bool ok = true;
  auto check = [&](const std::string& what, bool holds) {
    apps::shape_check(what, holds);
    ok = ok && holds;
  };
  check("every kOrdered result bitwise identical: solo == serialized == "
        "service",
        all_bitwise);
  // Cross-job residency: the shared dataset's slices were inlined once and
  // tokenized by later large jobs.
  check("later large jobs hit the resident caches (tokens sent)",
        serv.residency.tokens_sent > 0);
  // Concurrent groups can race a token past a neighbor's in-flight inline
  // delivery; the fetch fallback repairs that by design. It must stay the
  // exception, not the rule.
  check("fetch fallbacks are rare (sender models mostly coherent)",
        serv.residency.fetches * 5 <= serv.residency.tokens_sent);
  check("service ships fewer bytes than rescatter-per-job",
        serv.bytes_sent < base.bytes_sent);
  if (!check_only) {
    check("service job throughput >= 1.5x run-to-completion",
          thr_speedup >= 1.5);
    check("small-job p99 materially lower under the service",
          p99_serv < 0.67 * p99_base);
  }

  // Machine-readable record (bench/BENCH_service.json keeps a checked-in
  // copy).
  std::printf("\n{\n");
  std::printf("  \"workload\": {\"ranks\": %d, \"small_jobs\": %d, "
              "\"large_jobs\": %d, \"small_items\": %lld, \"large_items\": "
              "%lld, \"large_rounds\": %d},\n",
              ranks, w.n_small, w.n_large,
              static_cast<long long>(w.small_n),
              static_cast<long long>(w.large_n), w.large_rounds);
  std::printf("  \"makespan_seconds\": {\"serialized\": %.4f, \"service\": "
              "%.4f},\n",
              base.makespan, serv.makespan);
  std::printf("  \"throughput_jobs_per_second\": {\"serialized\": %.2f, "
              "\"service\": %.2f},\n",
              thr_base, thr_serv);
  std::printf("  \"throughput_speedup\": %.3f,\n", thr_speedup);
  std::printf("  \"small_job_latency_seconds\": {\"serialized\": {\"p50\": "
              "%.4f, \"p99\": %.4f}, \"service\": {\"p50\": %.4f, \"p99\": "
              "%.4f}},\n",
              p50_base, p99_base, p50_serv, p99_serv);
  std::printf("  \"bytes_sent\": {\"serialized\": %lld, \"service\": "
              "%lld},\n",
              static_cast<long long>(base.bytes_sent),
              static_cast<long long>(serv.bytes_sent));
  std::printf("  \"service_residency\": {\"tokens_sent\": %lld, "
              "\"bytes_avoided\": %lld, \"cache_hits\": %lld, \"fetches\": "
              "%lld},\n",
              static_cast<long long>(serv.residency.tokens_sent),
              static_cast<long long>(serv.residency.bytes_avoided),
              static_cast<long long>(serv.residency.cache_hits),
              static_cast<long long>(serv.residency.fetches));
  std::printf("  \"ordered_results_bitwise_identical\": %s\n",
              all_bitwise ? "true" : "false");
  std::printf("}\n");
  return ok ? 0 : 1;
}
