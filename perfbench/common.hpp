#pragma once

// Shared plumbing of the workloads: command-line options, the result a
// workload returns, the closed measurement loop, counter flattening at layer
// boundaries, and the list of every metric a run reports.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "metrics.hpp"
#include "net/comm.hpp"
#include "runtime/thread_pool.hpp"
#include "support/timing.hpp"
#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace path (traced runs)
  std::string git_sha = "unknown";
};

/// Threads a workload keeps busy: each rank's pool workers plus the rank
/// thread, which helps run tasks while it waits on its pool.
struct Shape {
  int ranks = 2;
  int workers = 1;
  int groups = 1;  // concurrently running job groups (service probe)
  int busy_threads() const { return ranks * (workers + 1) * groups; }
};

struct Report {
  Tally tally;
  std::vector<std::pair<std::string, double>> metrics;  // units: metric_schema()
  std::vector<std::string> notes;  // human-readable lines, printed first

  void add(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
};

/// Which result JSON a metric goes to: an untraced run's (end-to-end), a
/// traced run's (per layer), or neither (printed only).
enum class Kind { kEndToEnd, kPerLayer, kPrinted };

struct MetricDef {
  std::string name;
  std::string unit;
  Kind kind;
};

/// Every metric a run reports, with its unit, in report order. A run's
/// result JSON holds all metrics of its kind; a layer a workload does not
/// cross reads 0.
const std::vector<MetricDef>& metric_schema();

/// Unit of a metric in metric_schema(); "" for an unknown name.
std::string unit_of(const std::string& name);

/// An untraced run is kSetups segments, each a fresh set-up followed by
/// 1/kSetups of the measured seconds of ops, so the set-ups sample the same
/// stretch of host time as the ops; setup_s is their median. The first two
/// set-ups of sparse are slower while the heap grows; with seven, the median
/// falls among the warm ones. A traced run is one segment.
inline constexpr int kSetups = 7;

/// Median and mean of samples (triolet::summarize); zeros for no samples.
inline triolet::TimingStats stats(const std::vector<double>& xs) {
  return xs.empty() ? triolet::TimingStats{} : triolet::summarize(xs);
}

/// Closed-loop control, decided on rank 0 and broadcast before each op.
/// A segment measures for `seconds`. A traced run measures the first half
/// untraced and the second half traced, so both medians come from the same
/// run. Every segment makes at least kMinOps ops (two of them traced).
enum Cmd : int { kStop = 0, kRun = 1, kTraced = 2 };
inline constexpr std::size_t kMinOps = 4;

inline int next_cmd(bool trace, double seconds, double elapsed,
                    std::size_t plain, std::size_t traced) {
  const bool enough = plain + traced >= kMinOps && (!trace || traced >= 2);
  if (elapsed >= seconds && enough) return kStop;
  return trace && plain >= 2 && elapsed >= seconds / 2 ? kTraced : kRun;
}

/// Op times of a closed loop, recorded on rank 0.
struct OpTimes {
  std::vector<double> plain, traced;
};

/// This rank's Comm and pool counters, flattened (layers.cpp).
Counters rank_counters(triolet::net::Comm& comm,
                       const triolet::runtime::ThreadPool& pool);

/// One segment's closed measurement loop, run on every rank of a
/// long-lived cluster for `seconds`. Rank 0 picks each op's mode and
/// broadcasts it; an op is the pre-op barrier, then `op()` timed inside a
/// "bench.op" span carrying this rank's counter deltas. Rank 0 appends the
/// time to `t` and calls `check(k)` after it.
template <typename Op, typename Check>
void closed_loop(triolet::net::Comm& comm,
                 const triolet::runtime::ThreadPool& pool, const Args& a,
                 double seconds, OpTimes& t, Op&& op, Check&& check) {
  ThreadTrace& tt = thread_trace();
  triolet::Stopwatch loop;
  std::size_t plain = 0, traced = 0;
  for (std::int64_t k = 0;; ++k) {
    int cmd = comm.rank() == 0
                  ? next_cmd(a.trace, seconds, loop.seconds(), plain, traced)
                  : kStop;
    comm.broadcast(cmd);
    if (cmd == kStop) break;
    tt.on = cmd == kTraced;
    tt.op = k;
    {
      ScopedSpan b("net.barrier");
      comm.barrier();
    }
    double secs = 0;
    {
      ScopedSpan span("bench.op");
      const Counters before =
          span.active() ? rank_counters(comm, pool) : Counters{};
      triolet::Stopwatch sw;
      op();
      secs = sw.seconds();
      if (span.active()) span.add(delta(rank_counters(comm, pool), before));
    }
    tt.op = -1;
    if (comm.rank() == 0) {
      (cmd == kTraced ? t.traced : t.plain).push_back(secs);
      (cmd == kTraced ? traced : plain) += 1;
      check(k);
    }
  }
  tt.on = a.trace;
}

/// End-to-end metrics of a closed-loop workload (untraced run).
void add_closed_loop_metrics(Report& r, const OpTimes& t,
                             const std::vector<double>& setup_s, double rss_mb);

/// The spans recorded inside measured ops (op >= 0).
std::vector<Span> op_spans();

Report run_apps(const Args& a, const Shape& shape);
Report run_sparse(const Args& a, const Shape& shape);

/// Layer probes of the traced run. Each adds its metrics.
void probe_serial_checksum(Report& r);
void probe_allreduce(Report& r);
/// The svc layer: an open-loop job stream into one JobManager
/// (service.cpp); its jobs are checked ops of `r`.
void probe_service(Report& r, const Args& a, const Shape& shape);

/// Bytes of the sparse matrix one of two ranks holds resident (sparse.cpp).
std::size_t sparse_resident_block_bytes();

/// The public counters of one rank, flattened to layer-prefixed names.
Counters comm_counters(const triolet::net::CommStats& s);
Counters pool_counters(const triolet::runtime::PoolStats& s);

/// Fills the per-layer metrics shared by the closed-loop workloads: the
/// counter deltas on each rank's "bench.op" span and the barrier span of the
/// traced ops, the self time of every layer, the op-time tail of the
/// untraced half and the tracing overhead.
void add_common_layer_metrics(Report& r, const std::vector<Span>& spans,
                              const OpTimes& t);

/// Peak resident set of this process, in MB (10^6 bytes).
double peak_rss_mb();

}  // namespace perfbench
