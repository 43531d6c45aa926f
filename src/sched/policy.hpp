#pragma once

// Work-distribution policies for the distributed skeletons.
//
// SchedulePolicy makes the mapping of chunks to nodes a knob, decoupled
// from what is computed — the data-vs-work-distribution separation argued
// by Mapple and Distributed Ranges (PAPERS.md). The default, kStatic, is the
// paper's `par` schedule: one block per node, perfect for uniform loops and
// for nests whose inner sizes the root can read (see SchedulePolicy), but
// pathological for skew it cannot see in the iteration spaces the hybrid
// iterator keeps partitionable (filters, stepper inners, value-dependent
// costs; paper §3.2), which the demand-driven policies balance:
//
//   kStatic   one grant per rank, assigned up front (no protocol traffic)
//   kGuided   guided self-scheduling: the root grants runs of chunks whose
//             size decays geometrically with the remaining work, down to a
//             floor of one atom — big grants amortize protocol latency
//             early, small grants balance the tail
//   kDynamic  one atom per grant: maximum balance, maximum protocol traffic
//
// All three policies subdivide the domain into the *same* fixed sequence of
// atomic chunks ("atoms": `grain` outer-axis units each); policies only
// decide how many consecutive atoms a grant carries and who runs them. That
// invariant is what lets CombineMode::kOrdered produce bitwise identical
// results under every policy: per-atom partials are combined in atom order,
// which is independent of the rank that computed them. (kStatic's block
// split, below, applies only where nothing sees atoms.)

#include <algorithm>
#include <cstdint>

#include "core/domains.hpp"
#include "support/macros.hpp"

namespace triolet::sched {

using index_t = std::int64_t;

class AutoTuner;

/// kAuto is the model-driven mode (src/sched/tuner.hpp): the first round of
/// a scheduled skeleton runs an instrumented measurement configuration, the
/// measurements calibrate the sim:: cost model, and every later round runs
/// the candidate configuration the model predicts fastest — re-picked each
/// round as measurements refresh. kAuto never reaches the protocol itself:
/// run_chunks resolves it to one of the three concrete policies per round.
///
/// Which block kStatic gives rank r of p follows from options the caller
/// already sets. With the default kTree combine and grain 0, no consumer
/// sees atom boundaries, so rank r gets one node block. For most shapes it
/// is core::split_blocks(dom, p)[r]: the paper's node blocks, a
/// near-square grid for a Dim2 domain (the 2D sgemm decomposition, §2).
/// A nest over a Seq domain whose inner iterators have size() (concat_map
/// returning an indexer) is instead cut into contiguous blocks of equal
/// estimated inner-element counts, read from at most core::kWeightStrata
/// inner iterators (core::split_weighted), so every rank of a triangular
/// pair loop gets an equal share of the pairs. With kOrdered or an explicit
/// grain, rank r gets the atom band [natoms·r/p, natoms·(r+1)/p) that
/// per-atom partials need. kAuto never reaches the block split: its rounds
/// run kDynamic or a pick with a resolved grain.
enum class SchedulePolicy { kStatic, kGuided, kDynamic, kAuto };

/// How per-atom partial results are combined into the final answer.
///
///   kTree     each rank folds its grants locally, partials combine along
///             the binomial reduce tree. Fastest; exact for associative +
///             commutative ops (integer sums, histograms), but the
///             floating-point parenthesization depends on which rank ran
///             which chunk.
///   kOrdered  per-atom partials are gathered and left-folded in atom
///             order at the root: bitwise reproducible run-to-run AND
///             across policies (the demand-driven analogue of
///             Comm::reduce_ordered).
enum class CombineMode { kTree, kOrdered };

/// Hook the root's grant-service loop calls immediately before issuing
/// work — one call per grant (and per root self-issued run) with the number
/// of outer-domain items the grant covers. The service layer (src/svc/)
/// points this at a fair-share arbiter so concurrent jobs' grant streams
/// interleave by weighted deficit round-robin instead of arrival order.
/// before_grant may block (that is the throttle); it runs on the root's
/// rank thread only, and never changes which atoms exist or how they are
/// combined — kOrdered results are identical with or without a gate.
class GrantGate {
 public:
  virtual ~GrantGate() = default;
  virtual void before_grant(index_t items) = 0;
};

struct SchedOptions {
  SchedulePolicy policy = SchedulePolicy::kStatic;
  CombineMode combine = CombineMode::kTree;
  /// Atom size in outer-domain units (Seq indices / Dim2 rows / Dim3
  /// slabs). 0 = auto: extent / (8 * ranks), floored at one unit.
  index_t grain = 0;
  /// Grant double-buffering (kGuided/kDynamic only): a worker posts the
  /// request for its next run *before* executing the current one, so the
  /// root's service round trip overlaps the run's compute instead of
  /// preceding it. Never changes which atoms exist or how kOrdered combines
  /// them — results stay bitwise identical with it on or off.
  bool prefetch = true;
  /// Streamed grant execution (kGuided/kDynamic; kStatic has one grant and
  /// ignores it): instead of running each grant inline on the rank thread,
  /// hand it to the rank's thread pool (core::StreamingConsumer) and go
  /// straight back to receiving — the node computes on chunk k while chunk
  /// k+1 is in flight, and the root keeps serving requests while its own
  /// atoms execute. SchedStats::streamed_grants / overlap_seconds record
  /// how much pipeline this bought. Per-atom decomposition and compute are
  /// unchanged (same pool, same grain), so kOrdered results stay bitwise
  /// identical with streaming on or off.
  bool streaming = false;
  /// Slice residency for grant payloads: when the iterator draws on a
  /// resident source (dist::DistArray / dist::DistContext) and the slice
  /// cache is enabled (TRIOLET_SLICE_CACHE_BYTES > 0), grants whose task
  /// slice the worker already holds carry a checksum token instead of the
  /// payload. Purely a transport optimization: the decoded task bytes are
  /// identical, so kOrdered results stay bitwise identical on or off.
  bool residency = true;
  /// Tuner state for SchedulePolicy::kAuto. When null, run_chunks keeps a
  /// registry of AutoTuners on the Comm keyed by `tune_key`, so iterative
  /// jobs accumulate measurements across rounds with zero per-workload
  /// flags. Point this at a caller-owned (rank-local) AutoTuner to manage
  /// the state explicitly. Ignored for the concrete policies.
  AutoTuner* tuner = nullptr;
  /// Registry key for the implicit per-Comm tuner (see `tuner`). Scheduled
  /// skeletons that share a key share one tuner — e.g. the several
  /// reductions of one iterative job over the same resident array
  /// (dist::DistArray::tune_key()). 0 = the Comm's default shared job.
  std::uint64_t tune_key = 0;
  /// Fair-share gate for the root's grant issue (null = no gating, the
  /// single-job default). Callers inside the service layer get this set by
  /// svc::JobContext::sched_options(); the pointee must outlive the call.
  GrantGate* gate = nullptr;
};

inline const char* to_string(SchedulePolicy p) {
  switch (p) {
    case SchedulePolicy::kStatic: return "static";
    case SchedulePolicy::kGuided: return "guided";
    case SchedulePolicy::kDynamic: return "dynamic";
    case SchedulePolicy::kAuto: return "auto";
  }
  return "?";
}

/// Resolves the atom grain for a domain of `extent` outer units on `ranks`
/// nodes. Must depend only on (extent, ranks, requested, cost_cv) — never
/// on the policy — so all policies chunk identically (the kOrdered
/// invariant). `cost_cv` is the domain's per-unit cost-variance hint
/// (core::outer_cost_cv): 0 for dense domains, which keeps the default —
/// the shared two-level heuristic core::auto_grain_for, ~8 atoms per rank —
/// bit-for-bit unchanged; segmented domains report their value-weight skew
/// and get proportionally finer atoms. The hint is itself a pure function
/// of the domain, so it preserves the policy- and rank-independence of the
/// decomposition.
inline index_t resolve_grain(index_t extent, int ranks, index_t requested,
                             double cost_cv = 0.0) {
  TRIOLET_CHECK(requested >= 0, "grain must be non-negative");
  if (requested > 0) return requested;
  return core::auto_grain_for(extent, ranks, cost_cv);
}

/// Wire size of a Grant minus its task payload (done + three index_t
/// fields) — the part of a grant that is control, not data. Lives here
/// (not scheduler.hpp) so the tuner's cost model can price grant headers
/// without pulling in the protocol templates.
inline constexpr std::int64_t kGrantHeaderBytes = 1 + 3 * 8;

/// Number of atoms a domain of `extent` outer units splits into.
inline index_t atom_count(index_t extent, index_t grain) {
  TRIOLET_ASSERT(grain >= 1);
  return (extent + grain - 1) / grain;
}

/// Size (in atoms) of the next guided grant: ceil-free geometric decay
/// remaining / (2 * ranks), floored at one atom. With R atoms left the
/// grant sequence shrinks by a factor of (1 - 1/(2P)) per grant, the
/// classic guided self-scheduling schedule.
inline index_t guided_run_atoms(index_t remaining_atoms, int ranks) {
  return std::max<index_t>(1, remaining_atoms / (2 * static_cast<index_t>(ranks)));
}

}  // namespace triolet::sched
