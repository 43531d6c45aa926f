// Headline summary (paper §1/§6): across the four benchmarks at 128 cores,
// Triolet consistently beats Eden, achieves 23-100% of C+MPI+OpenMP, and
// reaches speedups "up to 9.6-99x relative to simple loops in sequential C".

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "apps/driver.hpp"
#include "bench_problems.hpp"
#include "core/triolet.hpp"
#include "dist/segmented.hpp"
#include "dist/skeletons.hpp"
#include "dist/views.hpp"
#include "net/cluster.hpp"
#include "sched/tuner.hpp"
#include "support/table.hpp"
#include "support/timing.hpp"
#include "svc/job_manager.hpp"

using namespace triolet;
using namespace triolet::apps;

namespace {

struct AppSummary {
  std::string name;
  double seq_c;
  ScalingSeries lowlevel, triolet, eden;
};

/// Steady-state wall seconds of an iterative triangular loop under one
/// schedule configuration on the real 8-rank in-process cluster (mean of
/// rounds 1..n-1; round 0 is cold — for kAuto it is the measurement round).
double steady_loop_seconds(const sched::SchedOptions& base, int rounds,
                           const Array1<double>& costs, bool* converged) {
  double sum = 0.0;
  int counted = 0;
  auto res = net::Cluster::run(bench::kNodes, [&](net::Comm& comm) {
    dist::NodeRuntime node(2);
    sched::AutoTuner tuner;
    sched::SchedOptions opts = base;
    if (base.policy == sched::SchedulePolicy::kAuto) opts.tuner = &tuner;
    auto make = [&] {
      return core::map(core::from_array(costs), [](double c) {
        double v = 0.0;
        const int n = static_cast<int>(c) * 4;
        for (int k = 0; k < n; ++k) v += std::sin(v + 1e-3 * k);
        return v;
      });
    };
    for (int r = 0; r < rounds; ++r) {
      comm.barrier();
      Stopwatch sw;
      volatile double sink = dist::reduce(
          comm, make, 0.0, [](double a, double b) { return a + b; }, opts);
      (void)sink;
      comm.barrier();
      if (comm.rank() == 0 && r > 0) {
        sum += sw.seconds();
        ++counted;
      }
    }
    if (comm.rank() == 0 && converged != nullptr) {
      *converged = base.policy != sched::SchedulePolicy::kAuto ||
                   (tuner.have_pick() && tuner.calibration().valid());
    }
  });
  if (!res.ok) {
    std::fprintf(stderr, "cluster failed: %s\n", res.error.c_str());
    std::exit(1);
  }
  return counted > 0 ? sum / counted : 0.0;
}

AppSummary summarize(const std::string& name, const MeasuredSystem& low,
                     const MeasuredSystem& tri, const MeasuredSystem& eden) {
  return AppSummary{name, seq_equivalent_seconds(low),
                    run_series(low, bench::kNodes, bench::kCoresPerNode),
                    run_series(tri, bench::kNodes, bench::kCoresPerNode),
                    run_series(eden, bench::kNodes, bench::kCoresPerNode)};
}

}  // namespace

int main() {
  std::printf("== Headline summary: all benchmarks at 128 simulated cores ==\n");

  std::vector<AppSummary> apps_summary;
  {
    auto p = bench::mriq_problem();
    auto m = measure_mriq(p, bench::kMriqUnits);
    apps_summary.push_back(
        summarize("mri-q", m.lowlevel, m.triolet, m.eden));
  }
  {
    auto p = bench::sgemm_problem();
    auto m = measure_sgemm(p, bench::kSgemmUnits);
    apps_summary.push_back(
        summarize("sgemm", m.lowlevel, m.triolet, m.eden));
  }
  {
    auto p = bench::tpacf_problem();
    auto m = measure_tpacf(p, bench::kTpacfUnits);
    apps_summary.push_back(
        summarize("tpacf", m.lowlevel, m.triolet, m.eden));
  }
  {
    auto p = bench::cutcp_problem();
    auto m = measure_cutcp(p, bench::kCutcpUnits);
    apps_summary.push_back(
        summarize("cutcp", m.lowlevel, m.triolet, m.eden));
  }

  Table t({"benchmark", "Triolet speedup", "C+MPI+OpenMP speedup",
           "Eden speedup", "Triolet/C ratio"});
  double min_t = 1e300, max_t = 0;
  bool all_within_band = true, beats_eden = true;
  for (const auto& a : apps_summary) {
    double st = final_speedup(a.triolet, a.seq_c);
    double sc = final_speedup(a.lowlevel, a.seq_c);
    double se = final_speedup(a.eden, a.seq_c);
    min_t = std::min(min_t, st);
    max_t = std::max(max_t, st);
    double ratio = st / sc;
    // The paper's band is "23-100% of C+MPI+OpenMP", except tpacf where
    // Triolet is slightly *faster* (Figure 7); allow that headroom.
    if (ratio < 0.23 || ratio > 1.20) all_within_band = false;
    if (!std::isnan(se) && se >= st) beats_eden = false;
    t.add_row({a.name, Table::num(st, 1), Table::num(sc, 1),
               std::isnan(se) ? "FAIL" : Table::num(se, 1),
               Table::num(ratio, 2)});
  }
  t.print("128-core summary (speedup over sequential C)");

  shape_check("Triolet within the paper's band vs C+MPI+OpenMP on every benchmark",
              all_within_band);
  shape_check("Triolet beats Eden wherever Eden completes", beats_eden);
  std::printf("\nTriolet 128-core speedup range: %.1fx - %.1fx "
              "(paper: 9.6x - 99x)\n",
              min_t, max_t);
  shape_check("speedup range brackets a saturating and a scaling benchmark",
              min_t < 35.0 && max_t > 60.0);

  // -- autotuned scheduling: zero flags vs the best hand-tuned schedule -------
  // A real (not simulated) 8-rank run of the skewed tpacf-shaped loop:
  // SchedulePolicy::kAuto measures round 0, calibrates the sim:: model, and
  // re-picks its own policy/grain/prefetch each round
  // (bm_autotune has the full sweep and the per-round picks).
  {
    Array1<double> costs(1024);
    for (core::index_t i = 0; i < costs.size(); ++i) {
      costs[i] = static_cast<double>(i);
    }
    const int rounds = 4;
    double best_manual = 1e300;
    for (auto policy :
         {sched::SchedulePolicy::kStatic, sched::SchedulePolicy::kGuided,
          sched::SchedulePolicy::kDynamic}) {
      sched::SchedOptions opts;
      opts.policy = policy;
      best_manual = std::min(
          best_manual, steady_loop_seconds(opts, rounds, costs, nullptr));
    }
    bool converged = false;
    sched::SchedOptions auto_opts;
    auto_opts.policy = sched::SchedulePolicy::kAuto;
    const double auto_steady =
        steady_loop_seconds(auto_opts, rounds, costs, &converged);
    const double ratio = auto_steady / best_manual;
    std::printf("\nAutotuned scheduling (8 ranks, skewed loop): "
                "auto %.4fs vs best manual %.4fs -> %.2fx\n",
                auto_steady, best_manual, ratio);
    shape_check("kAuto converges to a calibrated pick on the skewed loop",
                converged);
    shape_check("steady-state kAuto within 2x of the best manual schedule",
                ratio <= 2.0);
  }

  // -- segmented sources: demand scheduling on a power-law sparse matvec ------
  // A compact version of bm_sparse at 8 ranks: CSR rows as a resident
  // SegmentedDistArray, value-balanced atoms, hub rows clustered up front.
  // Static contiguous blocks strand the hubs on rank 0; kDynamic rebalances
  // them, and kOrdered keeps both results bitwise identical. bm_sparse holds
  // the full gates (>= 1.4x for kDynamic *and* kAuto, all-policy and
  // rank-count bitwise identity, warm-round tokenization).
  {
    const index_t nrows = 32768, ncols = 2048;
    const int warm_rounds = 5;  // median — any one round can lose a quantum
    std::vector<index_t> offsets{0};
    std::vector<double> packed;
    const index_t hubs = nrows / 64;
    for (index_t r = 0; r < nrows; ++r) {
      const index_t len = r < hubs ? ncols / 2 : 2 + r % 6;
      for (index_t k = 0; k < len; ++k) {
        packed.push_back(static_cast<double>((r * 31 + k * 17) % ncols));
        packed.push_back(std::sin(0.7 * static_cast<double>(r + k)));
      }
      offsets.push_back(static_cast<index_t>(packed.size()));
    }
    std::vector<double> x(static_cast<std::size_t>(ncols));
    for (index_t c = 0; c < ncols; ++c) {
      x[static_cast<std::size_t>(c)] = std::sin(0.01 * static_cast<double>(c));
    }
    double secs[2] = {0, 0}, sums[2] = {0, 0};
    const sched::SchedulePolicy pols[2] = {sched::SchedulePolicy::kStatic,
                                           sched::SchedulePolicy::kDynamic};
    for (int p = 0; p < 2; ++p) {
      net::set_slice_cache_budget(std::size_t{512} << 20);
      dist::SegmentedDistArray<double> a(offsets, packed);
      auto res = net::Cluster::run(bench::kNodes, [&](net::Comm& comm) {
        dist::NodeRuntime node(1);
        sched::SchedOptions opts;
        opts.policy = pols[p];
        opts.combine = sched::CombineMode::kOrdered;
        opts.grain = 4;
        auto make = [&] {
          return dist::transform(
              dist::from_segmented(a), [&x](const dist::Segment<double>& s) {
                double dot = 0;
                for (index_t k = 0; k < s.size() / 2; ++k) {
                  dot += s[2 * k + 1] *
                         x[static_cast<std::size_t>(s[2 * k])];
                }
                return dot;
              });
        };
        (void)dist::sum(comm, make, opts);  // cold round ships the matrix
        std::vector<double> rounds_s;
        double sum = 0;
        for (int r = 0; r < warm_rounds; ++r) {
          comm.barrier();
          Stopwatch sw;
          sum = dist::sum(comm, make, opts);
          comm.barrier();
          if (comm.rank() == 0) rounds_s.push_back(sw.seconds());
        }
        if (comm.rank() == 0) {
          std::sort(rounds_s.begin(), rounds_s.end());
          secs[p] = rounds_s[rounds_s.size() / 2];
          sums[p] = sum;
        }
      });
      net::set_slice_cache_budget(~std::size_t{0});
      if (!res.ok) std::exit(1);
    }
    const double sp = secs[0] / secs[1];
    std::printf("\nSegmented sparse matvec (8 ranks, power-law rows): "
                "static %.4fs vs dynamic %.4fs -> %.2fx, bitwise %s\n",
                secs[0], secs[1], sp,
                std::memcmp(&sums[0], &sums[1], sizeof(double)) == 0
                    ? "identical" : "DIFFERENT");
    shape_check("demand scheduling beats static blocks on power-law rows",
                sp > 1.0);
    shape_check("kOrdered matvec bitwise identical static vs dynamic",
                std::memcmp(&sums[0], &sums[1], sizeof(double)) == 0);
  }

  // -- service layer: one resident cluster instead of a run per job -----------
  // A compact version of bm_service's mixed stream at 8 ranks: small
  // latency-sensitive kOrdered jobs interleaved with resident-dataset scans.
  // Baseline runs each job in its own Cluster::run, strictly serialized;
  // the JobManager batches the smalls, overlaps groups, and keeps the
  // dataset resident. bm_service holds the full gates (>= 1.5x, p99).
  {
    const core::index_t small_n = 2048, large_n = 1 << 15;
    const int n_small = 10, n_large = 2;
    std::vector<Array1<double>> small_data;
    for (int i = 0; i < n_small; ++i) {
      Array1<double> a(small_n);
      for (core::index_t j = 0; j < small_n; ++j) {
        a[j] = 1e-4 * static_cast<double>(((i + 3) * j * 31) % 7919);
      }
      small_data.push_back(std::move(a));
    }
    Array1<double> dataset(large_n);
    for (core::index_t i = 0; i < large_n; ++i) {
      dataset[i] = 1e-6 * static_cast<double>((i * 13) % 4093);
    }
    sched::SchedOptions small_opts;
    small_opts.combine = sched::CombineMode::kOrdered;
    small_opts.grain = 64;
    auto small_sum = [&](net::Comm& comm, int i) {
      return dist::reduce(comm,
                          [&] { return core::from_array(small_data[
                              static_cast<std::size_t>(i)]); },
                          0.0, [](double a, double b) { return a + b; },
                          small_opts);
    };

    Stopwatch base_sw;
    dist::DistArray<double> d_base{Array1<double>(dataset)};
    for (int l = 0; l < n_large; ++l) {
      auto res = net::Cluster::run(bench::kNodes, [&](net::Comm& comm) {
        dist::NodeRuntime node(1);
        (void)dist::sum(comm, [&] { return dist::from_resident(d_base); });
      });
      if (!res.ok) std::exit(1);
      for (int i = l * (n_small / n_large);
           i < (l + 1) * (n_small / n_large); ++i) {
        auto r = net::Cluster::run(bench::kNodes, [&](net::Comm& comm) {
          dist::NodeRuntime node(1);
          (void)small_sum(comm, i);
        });
        if (!r.ok) std::exit(1);
      }
    }
    const double base_s = base_sw.seconds();

    Stopwatch serv_sw;
    {
      svc::ServiceOptions so;
      so.nranks = bench::kNodes;
      svc::JobManager mgr(so);
      dist::DistArray<double> d_serv{Array1<double>(dataset)};
      for (int l = 0; l < n_large; ++l) {
        mgr.submit({"scan"}, [&](svc::JobContext& ctx) {
          (void)dist::sum(ctx.comm(),
                          [&] { return dist::from_resident(d_serv); });
        });
        for (int i = l * (n_small / n_large);
             i < (l + 1) * (n_small / n_large); ++i) {
          svc::JobOptions jo;
          jo.name = "small";
          jo.batch_key = 1;
          mgr.submit(jo, [&, i](svc::JobContext& ctx) {
            (void)small_sum(ctx.comm(), i);
          });
        }
      }
      mgr.drain();
    }
    const double serv_s = serv_sw.seconds();
    const double speedup = base_s / serv_s;
    std::printf("\nService layer (8 ranks, %d-job mixed stream): "
                "run-to-completion %.3fs vs resident service %.3fs -> "
                "%.2fx job throughput\n",
                n_small + n_large, base_s, serv_s, speedup);
    shape_check("resident service beats a Cluster::run per job",
                speedup > 1.0);
  }
  return 0;
}
