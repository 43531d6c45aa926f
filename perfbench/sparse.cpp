// Workload `sparse`: a power iteration on a resident power-law CSR matrix
// (a dist::SegmentedDistArray, hub rows first as in bench/bm_sparse.cpp).
// x lives in a dist::DistContext that rank 0 rewrites every round, so
// matrix reads (residency tokens) run beside a per-round write (re-ship).
// An op is one kOrdered dist::sum under kStatic, one under kDynamic, then
// the x update, on 2 ranks x 1 worker. Compute is light: residency, the
// grant protocol, small eager messages and checksums do most of the work.
// kAuto is left out: its audit path may commit to different configurations
// in different runs, which would make the time per op bimodal.

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "dist/dist_array.hpp"
#include "dist/segmented.hpp"
#include "dist/skeletons.hpp"
#include "net/cluster.hpp"
#include "support/rng.hpp"
#include "support/timing.hpp"
#include "trace.hpp"

namespace perfbench {

namespace dist = triolet::dist;
namespace net = triolet::net;
namespace sched = triolet::sched;
using triolet::Stopwatch;
using triolet::index_t;

namespace {

constexpr index_t kRows = 65536;
constexpr index_t kCols = 2048;
constexpr index_t kHubs = kRows / 64;  // rows of kCols / 2 nonzeros each
constexpr int kXVersions = 8;          // x vectors cycled through by rounds
constexpr index_t kGrain = 4;          // pinned: same atoms under every policy

/// CSR with (column, value) interleaved as two doubles per nonzero: the
/// single-values-leaf layout of bench/bm_sparse.cpp.
struct Matrix {
  std::vector<index_t> offsets;  // into `packed`, 2 entries per nonzero
  std::vector<double> packed;
};

Matrix make_matrix(std::uint64_t seed) {
  triolet::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + 11);
  Matrix m;
  m.offsets.push_back(0);
  for (index_t r = 0; r < kRows; ++r) {
    const index_t len = r < kHubs ? kCols / 2 : 2 + static_cast<index_t>(rng.next() % 6);
    const index_t shift = static_cast<index_t>(rng.next() % kCols);
    for (index_t k = 0; k < len; ++k) {
      m.packed.push_back(static_cast<double>((shift + k * 17) % kCols));
      m.packed.push_back(rng.uniform(-1.0, 1.0));
    }
    m.offsets.push_back(static_cast<index_t>(m.packed.size()));
  }
  return m;
}

std::vector<std::vector<double>> make_xs(std::uint64_t seed) {
  triolet::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ull + 12);
  std::vector<std::vector<double>> xs(kXVersions, std::vector<double>(kCols));
  for (auto& x : xs) {
    const double w = rng.uniform(0.001, 0.05), phase = rng.uniform(0.0, 6.28);
    for (index_t c = 0; c < kCols; ++c) {
      x[static_cast<std::size_t>(c)] = std::sin(w * static_cast<double>(c) + phase);
    }
  }
  return xs;
}

double row_dot(const std::vector<double>& x, std::span<const double> row) {
  double dot = 0;
  for (std::size_t k = 0; k + 1 < row.size(); k += 2) {
    dot += row[k + 1] * x[static_cast<std::size_t>(row[k])];
  }
  return dot;
}

/// Sequential CSR reference of sum_r (A x)_r.
double reference(const Matrix& m, const std::vector<double>& x) {
  double acc = 0;
  for (std::size_t r = 0; r + 1 < m.offsets.size(); ++r) {
    const auto lo = static_cast<std::size_t>(m.offsets[r]);
    const auto hi = static_cast<std::size_t>(m.offsets[r + 1]);
    acc += row_dot(x, std::span<const double>(m.packed).subspan(lo, hi - lo));
  }
  return acc;
}

/// kOrdered results are bitwise equal across policies; against the
/// sequential loop they differ in summation order only.
constexpr double kRelTol = 1e-9;

bool matches(double stat, double dyn, double ref) {
  return std::memcmp(&stat, &dyn, sizeof stat) == 0 &&
         std::abs(stat - ref) <= kRelTol * std::max(1.0, std::abs(ref));
}

}  // namespace

std::size_t sparse_resident_block_bytes() {
  // Half the packed values: what one of two ranks holds resident.
  const auto m = make_matrix(1);
  return m.packed.size() * sizeof(double) / 2;
}

Report run_sparse(const Args& a, const Shape& shape) {
  Report rep;
  const int segments = a.trace ? 1 : kSetups;
  std::vector<double> setup_s;
  OpTimes times;
  double rss_mb = 0;
  for (int seg = 0; seg < segments; ++seg) {
    Stopwatch setup;
    const Matrix m = make_matrix(a.seed);
    const auto xs = make_xs(a.seed);
    std::vector<double> refs;
    for (const auto& x : xs) refs.push_back(reference(m, x));
    dist::SegmentedDistArray<double> mat(m.offsets, m.packed);
    dist::DistContext<std::vector<double>> xctx(xs[0]);

    auto make = [&] {
      return dist::map_with(
          dist::from_segmented(mat), xctx.ctx(),
          [](const std::vector<double>& x, const dist::Segment<double>& s) {
            return row_dot(x, s.values);
          });
    };
    ScopedSpan cluster_span("net.Cluster::run");
    auto res = net::Cluster::run(shape.ranks, [&](net::Comm& comm) {
      ThreadTrace& tt = thread_trace();
      tt.rank = comm.rank();
      tt.on = a.trace;
      std::unique_ptr<dist::NodeRuntime> node;
      {
        ScopedSpan s("dist.NodeRuntime");
        node = std::make_unique<dist::NodeRuntime>(shape.workers);
      }
      sched::SchedOptions st;
      st.combine = sched::CombineMode::kOrdered;
      st.grain = kGrain;
      st.tune_key = mat.tune_key();
      sched::SchedOptions dy = st;
      st.policy = sched::SchedulePolicy::kStatic;
      dy.policy = sched::SchedulePolicy::kDynamic;

      int xi = 0;  // index of the x vector the next round reads
      // One kOrdered sum in its own span, carrying this rank's deltas.
      auto sum = [&](const char* span, const sched::SchedOptions& opts) {
        ScopedSpan sp(span);
        const Counters before =
            sp.active() ? comm_counters(comm.snapshot_stats()) : Counters{};
        const double v = dist::sum(comm, make, opts);
        if (sp.active()) sp.add(delta(comm_counters(comm.snapshot_stats()), before));
        return v;
      };
      // One round; true when the results check out (meaningful on rank 0).
      auto round = [&] {
        const double s = sum("sched.sum_static", st);
        const double d = sum("sched.sum_dynamic", dy);
        const double ref = refs[static_cast<std::size_t>(xi)];
        xi = (xi + 1) % kXVersions;
        if (comm.rank() == 0) {
          ScopedSpan sp("dist.DistContext::update");
          xctx.update(xs[static_cast<std::size_t>(xi)]);
        }
        return matches(s, d, ref);
      };

      const bool warm_ok = round();  // cold round: ships the matrix and x
      comm.barrier();
      if (comm.rank() == 0) {
        setup_s.push_back(setup.seconds());
        rep.tally.record(warm_ok);  // the cold round is a checked op too
        if (!warm_ok) rep.notes.push_back("cold round wrong");
      }
      bool ok = false;
      closed_loop(comm, node->pool, a, a.seconds / segments, times,
                  [&] { ok = round(); },
                  [&](std::int64_t k) {
                    rep.tally.record(ok);
                    if (!ok) rep.notes.push_back("round " + std::to_string(k) + " wrong");
                  });
    });
    cluster_span.close();
    // Later set-ups reuse the heap the first one left, so the peak is read
    // over one set-up and its ops.
    if (seg == 0) rss_mb = peak_rss_mb();
    if (!res.ok) {
      rep.notes.push_back("cluster failed: " + res.error);
      rep.tally.record(false);
    }
  }

  rep.notes.push_back("sparse: " + std::to_string(times.plain.size()) +
                      " untraced rounds, " + std::to_string(times.traced.size()) +
                      " traced rounds");
  if (!a.trace) {
    add_closed_loop_metrics(rep, times, setup_s, rss_mb);
    return rep;
  }

  const std::vector<Span> spans = op_spans();
  add_common_layer_metrics(rep, spans, times);
  // The static round split: ranks x round span = busy + idle + unaccounted
  // (time spent neither computing granted work nor waiting for a grant).
  Counters st = mean_per_op(per_op(spans, "sched.sum_static"));
  rep.add("sched.static_round_s", st["span_s"]);
  rep.add("sched.busy_s", st["sched.busy_s"]);
  rep.add("sched.idle_s", st["sched.idle_s"]);
  rep.add("sched.unaccounted_s",
          shape.ranks * st["span_s"] - st["sched.busy_s"] - st["sched.idle_s"]);
  rep.add("sched.dynamic_round_s",
          mean_per_op(per_op(spans, "sched.sum_dynamic"))["span_s"]);
  rep.add("dist.update_s",
          mean_per_op(per_op(spans, "dist.DistContext::update"))["span_s"]);
  probe_serial_checksum(rep);
  probe_allreduce(rep);
  probe_service(rep, a, shape);
  return rep;
}

}  // namespace perfbench
