#pragma once

// Two-level distributed skeletons (paper §2, §3.4, §3.5).
//
// These run SPMD under a net::Cluster with one rank per cluster node, all
// through one engine, sched::run_chunks (src/sched/scheduler.hpp):
//
//   1. The root splits the iterator's domain into chunks, slices the iterator
//      per chunk — each slice's data source holds only the sub-arrays that
//      chunk touches — serializes the sliced iterator (fused loop body +
//      data) and sends it to the rank that runs it.
//   2. Every rank re-hints its chunks to `localpar` and runs the threaded
//      consumer from core/consume.hpp: work-stealing threads with private
//      per-thread accumulators.
//   3. Per-rank partial results are combined along net::Comm's binomial
//      reduce tree: each interior node merges two contiguous-rank partials,
//      so the root's combine work and received bytes are O(log P) instead
//      of O(P) (deterministic fixed-tree order; see docs/INTERNALS.md
//      "Collective algorithms").
//
// Every skeleton takes a trailing `const sched::SchedOptions& opts = {}`
// that chooses how chunks map to ranks (src/sched/policy.hpp). The default
// is the paper's `par` schedule: kStatic gives each rank one block, pushed
// up front: a core::split_blocks block (a near-square grid for 2D domains,
// the sgemm decomposition of §2), or for a 1D nest whose inner iterators
// have size() an equal share of inner elements (core::split_weighted).
// kGuided/kDynamic hand out atom runs on demand, kAuto lets a calibrated
// model choose (auto_options below), and CombineMode::kOrdered makes
// reductions bitwise reproducible across policies.
//
// Iterator construction happens only at the root: callers pass a `make`
// callable invoked on rank 0, so non-root ranks never need the input data —
// they receive their slice over the wire. (All ranks share the closure
// *type*, which is how the same binary can deserialize the task; see
// DESIGN.md on the closure-serialization substitution.)

#include "dist/dist_array.hpp"
#include "sched/scheduler.hpp"

namespace triolet::dist {

using core::index_t;

/// Per-node threaded runtime. Each SPMD rank constructs one of these at the
/// top of its body: the rank gets a private work-stealing pool (its "cores")
/// and a PoolScope that routes this thread's localpar consumers onto it.
/// Keeping pools per node prevents one node's idle threads from executing
/// another node's tasks, which both matches real cluster semantics and keeps
/// per-thread private accumulators disjoint between nodes.
struct NodeRuntime {
  explicit NodeRuntime(int threads_per_node)
      : pool(threads_per_node), scope(pool) {}

  runtime::ThreadPool pool;
  runtime::PoolScope scope;
};

/// Options for the model-driven scheduler (SchedulePolicy::kAuto,
/// src/sched/tuner.hpp): the first round of the keyed job runs an
/// instrumented measurement configuration, and every later round runs
/// whatever concrete policy/grain/prefetch combination the
/// calibrated sim:: model predicts fastest — zero per-workload flags.
/// Skeletons that pass the same `tune_key` on the same Comm share one
/// tuner, so the several reductions of one iterative job accumulate into
/// one calibration; DistArray::tune_key() / DistContext::tune_key() are
/// the natural keys for resident-data loops.
inline sched::SchedOptions auto_options(std::uint64_t tune_key = 0) {
  sched::SchedOptions opts;
  opts.policy = sched::SchedulePolicy::kAuto;
  opts.tune_key = tune_key;
  return opts;
}

// The skeletons, one definition each in sched/scheduler.hpp: rank 0 gets
// the result, the other ranks a default value.
using sched::average;
using sched::build_array1;
using sched::build_array2;
using sched::count;
using sched::float_histogram;
using sched::histogram;
using sched::maximum;
using sched::minimum;
using sched::reduce;
using sched::sum;

}  // namespace triolet::dist
