#pragma once

// Model-driven autotuning for the demand scheduler (SchedulePolicy::kAuto).
//
// Without it, SchedOptions leaves three knobs to the caller: policy, grain
// and prefetch. The AutoTuner closes the measure→simulate loop the
// benches already run by hand (bm_sched measures per-atom durations and
// asks sim::makespan_demand which policy should win) and runs it *inside*
// the scheduler, per round of an iterative job:
//
//   round 0  measurement: the job runs under kDynamic with prefetch off —
//            one atom per grant gives the model per-atom durations at full
//            resolution, and an unhidden request/grant wait measures the
//            true control round trip.
//   fit      each rank allgathers its round sample (per-run durations plus
//            its Comm::snapshot_stats() counter delta); every rank sums the
//            identical data and calls sim::calibrate_from, recovering the
//            compute / byte / latency coefficients (sim::Calibration).
//   pick     candidate SchedOptions — policy x grain ladder x prefetch —
//            are evaluated through makespan_demand /
//            makespan_overlap / makespan_static_block on the measured atom
//            durations; the predicted-best config is installed for the next
//            round. Re-picked every round as measurements refresh.
//   audit    the model is held to its word: when a picked round's measured
//            wall blows past its prediction by kModelMistrust, the fit is
//            demonstrably missing a cost the counters can't see (cold slice
//            shipping on an atom-boundary change, an oversubscribed node,
//            combine stalls), so the tuner stops arguing with the clock —
//            it measures each policy's best-predicted variant once and then
//            commits to the fastest *observed* configuration. Resident
//            sources make this cheap: audit rounds that revisit an already
//            shipped decomposition run warm, token-only.
//
// Determinism: all tuner state that influences a decision is derived from
// allgathered data, so every rank computes bit-identical picks without a
// broadcast — the SPMD analogue of the options being literal constants.
// The audit path included: observations key off the allgathered max wall.
//
// kOrdered safety: when the consumer combines in atom order (or the caller
// pinned an explicit grain), the grain ladder collapses to the one
// policy-independent resolve_grain value, so the atom decomposition — and
// therefore every kOrdered result — is bitwise identical to every manual
// configuration at that grain, no matter which policy/prefetch combination
// the tuner picks.

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/comm.hpp"
#include "sched/policy.hpp"
#include "sim/schedule.hpp"

namespace triolet::sched {

/// One executed grant's measured duration, in outer-domain units so samples
/// taken at one grain can be re-aggregated into atoms of any other grain.
/// unit_lo is absolute within the job's domain; runs of one round are
/// disjoint and cover it.
struct RunSample {
  std::int64_t unit_lo = 0;
  std::int64_t units = 0;
  double seconds = 0.0;
};

TRIOLET_SERIALIZE_FIELDS(RunSample, unit_lo, units, seconds)

/// One candidate configuration and the model's verdict on it.
struct TunedCandidate {
  SchedulePolicy policy = SchedulePolicy::kStatic;
  index_t grain = 1;  // resolved, always > 0
  bool prefetch = true;
  double predicted_seconds = 0.0;

  bool same_config(const TunedCandidate& o) const {
    return policy == o.policy && grain == o.grain && prefetch == o.prefetch;
  }
};

/// The best (minimum) measured wall of every configuration that has run at
/// least one full round, in first-ran order. Feeds the audit path.
struct ObservedConfig {
  TunedCandidate cfg;          // predicted_seconds unused here
  double wall_seconds = 0.0;   // min over the rounds this config ran
};

class AutoTuner;

/// The implicit registry run_chunks keeps in Comm::sched_state() when
/// SchedOptions::tuner is null: one AutoTuner per tune_key, living as long
/// as the Comm, so iterative jobs accumulate rounds with zero caller state.
/// Only the Comm's rank thread touches it: batched service jobs that share
/// a Comm run one after another on that thread. Entries are stable
/// (std::map), so returned references stay valid as the map grows.
struct TunerRegistry {
  std::map<std::uint64_t, AutoTuner> jobs;
};

/// Per-rank autotuner state for one logical job. Rank-local, but every
/// decision is a pure function of allgathered round samples, so all ranks'
/// tuners stay in lockstep (see header comment). Used by run_chunks via
/// SchedulePolicy::kAuto; usable directly for inspection in tests/benches.
class AutoTuner {
 public:
  /// How the next pick is chosen: by the makespan model (the default), by
  /// working through the audit queue after a gross misprediction, or
  /// committed to the best observed configuration. Committed is terminal
  /// for the tuner's lifetime — committed rounds skip the per-round
  /// collective entirely, so nothing new can be learned (recreate the
  /// tuner, or use a fresh tune_key, to re-tune a changed job).
  enum class PickMode { kModel, kAudit, kCommitted };

  /// Completed rounds (finish_round calls).
  int rounds() const { return rounds_; }
  /// The configuration the next round will run (valid after one round).
  const SchedOptions& pick() const { return pick_; }
  bool have_pick() const { return have_pick_; }
  /// Last fitted model coefficients.
  const sim::Calibration& calibration() const { return cal_; }
  /// Audit state: how the current pick was chosen and what has actually
  /// been measured so far (min wall per configuration that ran).
  PickMode pick_mode() const { return mode_; }
  const std::vector<ObservedConfig>& observations() const { return obs_; }
  /// What the model predicted for the configuration the next round runs
  /// (0 before the first pick).
  double last_predicted_seconds() const { return predicted_; }
  /// Outer extent of the job as seen by the root (after one round).
  index_t extent() const { return extent_; }

  /// Resolves this round's concrete options from the user's kAuto options:
  /// the measurement config on the first round (or after the job's extent
  /// changed), the model's pick afterwards. Never returns kAuto. Also
  /// begins the round's sample collection.
  SchedOptions begin_round(const SchedOptions& user);

  /// Records one executed run (called by run_chunks' instrumented on_chunk
  /// wrapper on the rank thread).
  void record_run(index_t atom_lo, index_t grain, index_t units,
                  double seconds);

  /// Collective round finish: allgathers this rank's samples and counter
  /// delta, refits the calibration, evaluates the candidate lattice, and
  /// installs the predicted-best configuration for the next round.
  /// `root_extent` is the job's outer extent on rank 0, -1 elsewhere;
  /// `root_cost_cv` is the domain's per-unit cost-variance hint
  /// (core::outer_cost_cv) on rank 0 — allgathered with the extent so every
  /// rank pins the same cv-aware resolve_grain the concrete policies use.
  void finish_round(net::Comm& comm, double wall_seconds,
                    const net::CommStats& delta, index_t root_extent,
                    double root_cost_cv = 0.0);

 private:
  int rounds_ = 0;
  index_t extent_ = -1;
  bool have_pick_ = false;
  SchedOptions user_{};  // the kAuto options begin_round saw (combine, grain)
  SchedOptions ran_{};   // the concrete options of the in-flight round
  SchedOptions pick_{};
  sim::Calibration cal_{};
  double predicted_ = 0.0;
  PickMode mode_ = PickMode::kModel;
  std::vector<ObservedConfig> obs_;     // min measured wall per ran config
  std::vector<TunedCandidate> audit_;   // configs still owed a real round

  std::vector<RunSample> runs_;
};

namespace detail {

/// Resolves the tuner for one run_chunks call: the caller-owned one when
/// SchedOptions::tuner is set, else the Comm-registry entry for tune_key
/// (created on first use).
inline AutoTuner& tuner_for(net::Comm& comm, const SchedOptions& opts) {
  if (opts.tuner != nullptr) return *opts.tuner;
  auto& slot = comm.sched_state();
  if (!slot) slot = std::make_shared<TunerRegistry>();
  auto* reg = static_cast<TunerRegistry*>(slot.get());
  // Fold the Comm's job identity (its tag-lease base; 0 outside the service
  // layer) into the registry key so two service jobs that happen to share a
  // Comm and a tune_key (e.g. both defaulted to 0) still get separate
  // tuners — one job's measurements must never steer another's picks. The
  // fold is a pure function of SPMD-uniform state, so all ranks agree.
  const std::uint64_t key =
      opts.tune_key ^ (comm.job_key() * 0x9E3779B97F4A7C15ull);
  return reg->jobs[key];
}

}  // namespace detail

}  // namespace triolet::sched
