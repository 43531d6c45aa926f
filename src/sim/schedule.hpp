#pragma once

// Intra-node schedulers for the cluster simulator.
//
// A simulated node runs a bag of measured task durations on
// `cores_per_node` cores. The makespan depends on the scheduling policy the
// modelled system uses:
//
//   makespan_dynamic      tasks claimed in order by the earliest-free core —
//                         models Triolet's work stealing and OpenMP dynamic
//                         scheduling (fine-grained, even distribution)
//   makespan_static_block contiguous blocks of tasks pre-assigned to cores —
//                         models OpenMP default static scheduling and Eden's
//                         pre-split process farms
//   makespan_static_cyclic round-robin pre-assignment — OpenMP
//                         schedule(static,1), the tuned choice for skewed
//                         (e.g. triangular) loops
//   makespan_lpt          longest-processing-time greedy — an offline bound
//                         used by tests as a sanity reference
//
// StragglerModel perturbs task durations deterministically, reproducing the
// paper's observation that Eden tasks "occasionally run significantly slower
// than normal" (§4.2).

#include <algorithm>
#include <cstdint>
#include <vector>

namespace triolet::net {
struct CommStats;
struct SchedStats;
}  // namespace triolet::net

namespace triolet::runtime {
struct PoolStats;
}  // namespace triolet::runtime

namespace triolet::sim {

double makespan_dynamic(const std::vector<double>& tasks, int workers);
double makespan_static_block(const std::vector<double>& tasks, int workers);
/// Round-robin pre-assignment (OpenMP schedule(static,1)): task i goes to
/// core i mod workers. Balances monotone ramps like triangular loops.
double makespan_static_cyclic(const std::vector<double>& tasks, int workers);
double makespan_lpt(std::vector<double> tasks, int workers);

/// Demand-driven (request/grant) makespan, modelling the src/sched/
/// protocol: chunks are claimed in order by the earliest-free worker, and
/// every claim first pays `overhead` seconds of control round trip
/// (request up, grant down — see grant_overhead in network_model.hpp)
/// before the chunk executes. With overhead == 0 this degenerates to
/// makespan_dynamic; with large overheads it exposes the cost of
/// fine-grained (kDynamic) scheduling that guided grant-size decay
/// amortizes.
double makespan_demand(const std::vector<double>& chunks, int workers,
                       double overhead);

/// Demand-driven makespan with request prefetch (SchedOptions::prefetch):
/// a worker posts the request for chunk k+1 before executing chunk k, so
/// the control round trip overlaps the current chunk's compute. The next
/// chunk starts at max(finish_k, claim_k + overhead) — the round trip is
/// fully hidden whenever a chunk runs at least `overhead` seconds; only
/// each worker's first claim pays it unconditionally. With overhead == 0
/// this degenerates to makespan_dynamic, and it is never worse than
/// makespan_demand on the same inputs.
double makespan_overlap(const std::vector<double>& chunks, int workers,
                        double overhead);

/// Sum of task durations (the 1-worker makespan).
double total_work(const std::vector<double>& tasks);

/// Coefficient of variation (stddev / mean) of a measured task-duration
/// profile — the scalar skew figure the calibration carries for segmented
/// (ragged) workloads. 0 for uniform, empty, or degenerate profiles.
double cost_variation(const std::vector<double>& tasks);

// -- measured-counter calibration ---------------------------------------------
//
// The makespan models above take abstract chunk durations and a scalar claim
// overhead. Calibration closes the loop with the real runtime: one round of
// a scheduled skeleton leaves enough in CommStats/SchedStats/PoolStats
// (busy seconds, executed items, request->grant waits, grant payload bytes)
// to recover the model's compute / byte / latency coefficients, after which
// makespan_demand / makespan_overlap predict candidate configurations on the
// *measured* workload instead of an assumed one (the autotuner's core,
// src/sched/tuner.hpp).

/// Per-byte serialize+deliver cost assumed before any traffic is measured:
/// two passes over the payload at the NetworkModel default copy cost.
inline constexpr double kDefaultSecondsPerGrantByte = 2 * 0.25e-9;

/// Cost coefficients of the demand-scheduling model, recovered from one
/// round of measured counters (see calibrate_from).
struct Calibration {
  /// Mean compute cost of one outer-domain unit (busy_seconds over
  /// items_executed) — scales every candidate's chunk durations.
  double seconds_per_item = 0.0;
  /// Mean measured request->grant wait (idle_seconds over steal_waits): the
  /// full worker-perceived control round trip, including root service delay.
  double round_trip_seconds = 0.0;
  /// The share of the round trip attributed to the root serving between
  /// self-issued atoms (bounded by one atom of root compute; estimated as
  /// half the mean measured chunk). Streaming roots eliminate it.
  double service_delay_seconds = 0.0;
  /// round_trip minus service delay minus byte costs: the irreducible
  /// per-claim wire latency the model charges every candidate.
  double latency_seconds = 0.0;
  /// Serialize+deliver cost per grant payload byte; refined from the
  /// measured zero-copy share (zero-copy bytes pay one pass, copied bytes
  /// two).
  double seconds_per_grant_byte = kDefaultSecondsPerGrantByte;
  /// Grant payload bytes per granted outer unit (receiver-side measurement)
  /// — sizes candidate grants on the byte axis. Residency tokens shrink
  /// this, so the model automatically prices resident grants cheaper.
  double grant_bytes_per_item = 0.0;
  /// Intra-node pool tasks per outer unit (CommStats::pool) — how finely the
  /// node-level runtime subdivided the granted work; informational.
  double tasks_per_item = 0.0;
  /// Per-atom cost variation (cost_variation of the measured atom profile
  /// at the base grain). Dense uniform rounds fit ~0; segmented power-law
  /// rounds fit >> 0, and the tuner widens its exploration toward finer
  /// grains and demand policies when the skew is material (not filled by
  /// calibrate_from — the counters carry no per-atom data; the tuner sets
  /// it from its allgathered run samples).
  double cost_cv = 0.0;
  /// Sample mass behind the numbers (outer units measured). 0 = nothing
  /// measured; the calibration is not usable.
  std::int64_t items = 0;

  bool valid() const { return items > 0 && seconds_per_item > 0.0; }

  /// Modelled per-claim overhead of a candidate whose grants carry
  /// `grant_bytes` of payload while the root's self-issued atoms run
  /// `root_atom_seconds` each: wire latency + byte costs + (unless the root
  /// streams its atoms to the pool) half an atom of service delay.
  double overhead_for(double grant_bytes, double root_atom_seconds,
                      bool streaming_root) const {
    double oh = latency_seconds + grant_bytes * seconds_per_grant_byte;
    if (!streaming_root) oh += 0.5 * std::max(0.0, root_atom_seconds);
    return std::max(oh, 0.0);
  }
};

/// Recovers Calibration from (deltas of) one rank's or a whole cluster's
/// counters — typically the cluster-wide sum of per-rank
/// Comm::snapshot_stats() deltas over one scheduled round. Fields whose
/// inputs are absent (e.g. no request/grant traffic in a kStatic round)
/// stay at their defaults; callers carry forward previous values.
Calibration calibrate_from(const net::CommStats& comm,
                           const net::SchedStats& sched,
                           const runtime::PoolStats& pool);

struct StragglerModel {
  double probability = 0.0;  // chance a task is delayed
  double slowdown = 1.0;     // delayed tasks run this factor slower
  std::uint64_t seed = 0;

  /// Returns a perturbed copy of `tasks`; `salt` decorrelates different
  /// uses (e.g. different node counts) while staying deterministic.
  std::vector<double> apply(std::vector<double> tasks,
                            std::uint64_t salt) const;
};

}  // namespace triolet::sim
