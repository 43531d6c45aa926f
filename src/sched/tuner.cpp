#include "sched/tuner.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "support/macros.hpp"

namespace triolet::sched {

namespace {

/// Grain ladder half-width in octaves around the resolve_grain default: 2
/// explores {g/4, g/2, g, 2g, 4g}. Only open for kTree consumers — a
/// kOrdered consumer pins the grain (see tuner.hpp).
constexpr int kGrainOctaves = 2;

/// Measured-over-predicted ratio past which the model is mistrusted and the
/// tuner switches to auditing real rounds (see tuner.hpp). It only fires on
/// gross misses — cold shipping, oversubscription — never on ordinary
/// timing noise.
constexpr double kModelMistrust = 3.0;

/// One rank's contribution to a round fit: its executed runs, its wall
/// time for the round, the job extent (root only; -1 elsewhere), and its
/// counter delta. Allgathered so every rank fits the identical dataset.
struct RoundSample {
  std::vector<RunSample> runs;
  double wall_seconds = 0.0;
  std::int64_t extent = -1;
  double domain_cv = 0.0;  // root's core::outer_cost_cv (valid with extent)
  net::CommStats delta{};
};

template <typename F>
void triolet_visit_fields(RoundSample& obj, F&& f) {
  auto& [runs, wall_seconds, extent, domain_cv, delta] = obj;
  f(runs, wall_seconds, extent, domain_cv, delta);
}

/// Re-aggregates measured per-run durations into per-atom durations at an
/// arbitrary candidate grain. Run seconds spread uniformly over the run's
/// units — exact when runs are single atoms (the measurement round), an
/// approximation that keeps macro skew when later rounds run coarser.
std::vector<double> atoms_from_runs(const std::vector<RunSample>& runs,
                                    index_t extent, index_t grain) {
  const index_t n = atom_count(extent, grain);
  std::vector<double> atoms(static_cast<std::size_t>(n), 0.0);
  for (const auto& r : runs) {
    if (r.units <= 0 || r.seconds <= 0.0) continue;
    const double per_unit = r.seconds / static_cast<double>(r.units);
    index_t u = r.unit_lo;
    index_t left = r.units;
    while (left > 0) {
      const index_t a = u / grain;
      if (a < 0 || a >= n) break;
      const index_t take = std::min(left, (a + 1) * grain - u);
      atoms[static_cast<std::size_t>(a)] += per_unit * static_cast<double>(take);
      u += take;
      left -= take;
    }
  }
  return atoms;
}

/// Collapses atom durations into the guided grant sequence for `ranks`
/// (mirrors the root's serve loop: runs of guided_run_atoms, decaying).
std::vector<double> guided_chunks(const std::vector<double>& atoms,
                                  int ranks) {
  std::vector<double> chunks;
  const index_t n = static_cast<index_t>(atoms.size());
  index_t next = 0;
  while (next < n) {
    const index_t remaining = n - next;
    const index_t k = std::min(remaining, guided_run_atoms(remaining, ranks));
    double s = 0.0;
    for (index_t i = next; i < next + k; ++i) {
      s += atoms[static_cast<std::size_t>(i)];
    }
    chunks.push_back(s);
    next += k;
  }
  return chunks;
}

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double d : v) s += d;
  return s / static_cast<double>(v.size());
}

/// Evaluates one candidate through the calibrated makespan models.
double predict(const std::vector<double>& atoms, const sim::Calibration& cal,
               int ranks, index_t extent, const TunedCandidate& c) {
  if (atoms.empty()) return 0.0;
  const double units_per_atom =
      static_cast<double>(extent) / static_cast<double>(atoms.size());
  const double atom_payload =
      static_cast<double>(kGrantHeaderBytes) +
      units_per_atom * cal.grant_bytes_per_item;
  const double mean_atom_seconds = mean_of(atoms);
  switch (c.policy) {
    case SchedulePolicy::kStatic: {
      // No protocol traffic; one pushed grant per rank. Charge one grant
      // delivery (latency + a rank-block payload) on the startup path —
      // the rest of the serialization overlaps the root's own block.
      const double block_bytes =
          static_cast<double>(extent) / static_cast<double>(ranks) *
          cal.grant_bytes_per_item;
      return sim::makespan_static_block(atoms, ranks) + cal.latency_seconds +
             block_bytes * cal.seconds_per_grant_byte;
    }
    case SchedulePolicy::kGuided: {
      const auto chunks = guided_chunks(atoms, ranks);
      const double run_atoms =
          static_cast<double>(atoms.size()) /
          static_cast<double>(std::max<std::size_t>(1, chunks.size()));
      const double oh =
          cal.overhead_for(run_atoms * atom_payload, mean_atom_seconds);
      return c.prefetch ? sim::makespan_overlap(chunks, ranks, oh)
                        : sim::makespan_demand(chunks, ranks, oh);
    }
    case SchedulePolicy::kDynamic: {
      const double oh = cal.overhead_for(atom_payload, mean_atom_seconds);
      return c.prefetch ? sim::makespan_overlap(atoms, ranks, oh)
                        : sim::makespan_demand(atoms, ranks, oh);
    }
    case SchedulePolicy::kAuto: break;  // never evaluated
  }
  TRIOLET_CHECK(false, "kAuto is not a concrete candidate");
  return 0.0;
}

}  // namespace

SchedOptions AutoTuner::begin_round(const SchedOptions& user) {
  TRIOLET_CHECK(user.policy == SchedulePolicy::kAuto,
                "AutoTuner::begin_round expects kAuto options");
  user_ = user;
  SchedOptions out = user;
  out.tuner = nullptr;  // the returned options are concrete, not re-tuned
  if (!have_pick_) {
    // Measurement round: one atom per grant at full duration resolution;
    // prefetch off so the request->grant wait measures the whole unhidden
    // control round trip.
    out.policy = SchedulePolicy::kDynamic;
    out.prefetch = false;
  } else {
    out.policy = pick_.policy;
    out.grain = pick_.grain;
    out.prefetch = pick_.prefetch;
  }
  ran_ = out;
  runs_.clear();
  return out;
}

void AutoTuner::record_run(index_t atom_lo, index_t grain, index_t units,
                           double seconds) {
  if (units <= 0) return;
  runs_.push_back(RunSample{atom_lo * grain, units, seconds});
}

void AutoTuner::finish_round(net::Comm& comm, double wall_seconds,
                             const net::CommStats& delta, index_t root_extent,
                             double root_cost_cv) {
  // Committed: the audit verdict stands and there is no decision left to
  // make, so the round finishes without the allgather or the refit — the
  // steady state pays none of the tuner's collective overhead. mode_ moves
  // in lockstep on every rank (it is a pure function of allgathered data),
  // so skipping the collective here is globally consistent.
  if (mode_ == PickMode::kCommitted) {
    rounds_ += 1;
    return;
  }
  RoundSample mine;
  mine.runs = std::move(runs_);
  runs_.clear();
  mine.wall_seconds = wall_seconds;
  mine.extent = root_extent;
  mine.domain_cv = root_cost_cv;
  mine.delta = delta;

  // Every rank receives the identical sample set (allgather is indexed by
  // rank), so the fit and the pick below are bit-identical cluster-wide
  // without any broadcast.
  auto all = comm.allgather(mine);

  net::CommStats sum{};
  double max_wall = 0.0;
  index_t extent = -1;
  double domain_cv = 0.0;
  std::vector<RunSample> runs;
  for (auto& s : all) {
    sum += s.delta;
    max_wall = std::max(max_wall, s.wall_seconds);
    if (s.extent >= 0) {
      extent = s.extent;
      domain_cv = s.domain_cv;
    }
    runs.insert(runs.end(), s.runs.begin(), s.runs.end());
  }
  rounds_ += 1;
  if (extent <= 0 || runs.empty()) return;  // empty job: nothing to fit
  if (extent_ >= 0 && extent != extent_) {
    // A different job shape under the same key: every observation and any
    // audit verdict is stale. Back to trusting the model.
    obs_.clear();
    audit_.clear();
    mode_ = PickMode::kModel;
  }
  extent_ = extent;
  // Remember what this round's configuration actually cost. The min over a
  // config's rounds is its steady-state figure: a first round after an
  // atom-boundary change pays one-time cold slice shipping that later
  // rounds (and the committed steady state) never see again. The
  // measurement round is excluded — it deliberately runs with every
  // overlap disabled, so its wall is an instrument reading, not a
  // configuration any steady state should commit to.
  if (have_pick_) {
    const TunedCandidate ran{ran_.policy, ran_.grain, ran_.prefetch, 0.0};
    ObservedConfig* hit = nullptr;
    for (auto& o : obs_) {
      if (o.cfg.same_config(ran)) hit = &o;
    }
    if (hit == nullptr) {
      obs_.push_back(ObservedConfig{ran, max_wall});
    } else {
      hit->wall_seconds = std::min(hit->wall_seconds, max_wall);
    }
  }
  // Runs of one round are disjoint, so unit_lo orders them totally — the
  // merged profile is deterministic regardless of arrival interleaving.
  std::sort(runs.begin(), runs.end(),
            [](const RunSample& a, const RunSample& b) {
              return a.unit_lo < b.unit_lo;
            });

  sim::Calibration c = sim::calibrate_from(sum, sum.sched, sum.pool);
  // The round-trip decomposition is only trustworthy when this round left
  // the wait exposed: a demand policy with prefetch off (normally just the
  // measurement round). Otherwise idle_seconds measures the *hidden*
  // remainder — carry the last clean figures forward.
  const bool clean_rt =
      ran_.policy != SchedulePolicy::kStatic && !ran_.prefetch;
  if (!clean_rt || c.round_trip_seconds <= 0.0) {
    c.round_trip_seconds = cal_.round_trip_seconds;
    c.service_delay_seconds = cal_.service_delay_seconds;
    c.latency_seconds = cal_.latency_seconds;
  }
  if (c.grant_bytes_per_item <= 0.0) {
    c.grant_bytes_per_item = cal_.grant_bytes_per_item;
  }
  if (!c.valid()) return;  // keep the previous pick and calibration
  cal_ = c;

  const int p = comm.size();

  // Per-atom skew of the measured profile at the base grain: the scalar the
  // makespan models can't see from counters alone. Recorded on the
  // calibration (inspection, benches) and used below to widen the grain
  // exploration — skewed segments reward finer atoms that demand policies
  // can rebalance, exactly the regime where static's contiguous blocks lose.
  const index_t base_grain = resolve_grain(extent, p, user_.grain, domain_cv);
  cal_.cost_cv = sim::cost_variation(atoms_from_runs(runs, extent, base_grain));

  // Grain ladder. kOrdered consumers (and callers that pinned a grain) get
  // exactly the policy-independent resolve_grain value, preserving the
  // bitwise-identity invariant; kTree consumers explore octaves around it,
  // one octave further toward fine grains when the measured skew is material.
  std::vector<index_t> ladder;
  if (user_.combine == CombineMode::kOrdered || user_.grain > 0) {
    ladder.push_back(base_grain);
  } else {
    const index_t g0 = resolve_grain(extent, p, 0, domain_cv);
    const int extra_fine = cal_.cost_cv > 1.0 ? 1 : 0;
    for (int o = -(kGrainOctaves + extra_fine); o <= kGrainOctaves; ++o) {
      index_t g = o < 0 ? std::max<index_t>(1, g0 >> (-o)) : g0 << o;
      ladder.push_back(std::clamp<index_t>(g, 1, std::max<index_t>(1, extent)));
    }
    std::sort(ladder.begin(), ladder.end());
    ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
  }

  // Candidate lattice: policy x grain x prefetch. Lattice order doubles as
  // the deterministic tie-break — earlier entries win exact ties, so the
  // simplest adequate configuration is preferred (static before demand
  // policies, prefetch on before off).

  std::vector<TunedCandidate> cands;
  std::map<index_t, std::vector<double>> atoms_by_grain;
  auto atoms_for = [&](index_t g) -> const std::vector<double>& {
    auto it = atoms_by_grain.find(g);
    if (it == atoms_by_grain.end()) {
      it = atoms_by_grain.emplace(g, atoms_from_runs(runs, extent, g)).first;
    }
    return it->second;
  };
  for (SchedulePolicy policy :
       {SchedulePolicy::kStatic, SchedulePolicy::kGuided,
        SchedulePolicy::kDynamic}) {
    for (index_t g : ladder) {
      for (bool prefetch : {true, false}) {
        TunedCandidate c0{policy, g, prefetch, 0.0};
        c0.predicted_seconds = predict(atoms_for(g), cal_, p, extent, c0);
        cands.push_back(c0);
        if (policy == SchedulePolicy::kStatic) break;  // no requests to hide
      }
    }
  }

  // Measured feedback. The model prices warm steady-state rounds; a pick
  // whose real wall blows past its prediction by the mistrust factor hit a
  // cost the counters can't expose (cold re-shipping after an atom-boundary
  // change, node oversubscription). Arguing with the clock is pointless:
  // audit each policy's best-predicted variant with one real round, then
  // commit to the fastest configuration actually observed.
  if (mode_ == PickMode::kModel && have_pick_ && predicted_ > 0.0 &&
      max_wall > kModelMistrust * predicted_) {
    mode_ = PickMode::kAudit;
    audit_.clear();
    // One round per policy, each at its default serving variant (prefetch
    // on) and best-predicted grain: the audit ranks *policies* by the clock;
    // the model keeps the variant refinements it is actually good at.
    // Bounded: at most three extra rounds.
    for (SchedulePolicy policy :
         {SchedulePolicy::kStatic, SchedulePolicy::kGuided,
          SchedulePolicy::kDynamic}) {
      const TunedCandidate* bp = nullptr;
      for (const auto& cand : cands) {
        if (cand.policy != policy || !cand.prefetch) continue;
        if (bp == nullptr || cand.predicted_seconds < bp->predicted_seconds) {
          bp = &cand;
        }
      }
      if (bp == nullptr) continue;
      bool seen = false;
      for (const auto& o : obs_) seen = seen || o.cfg.same_config(*bp);
      if (!seen) audit_.push_back(*bp);
    }
  }

  TunedCandidate chosen;
  if (mode_ == PickMode::kAudit && audit_.empty()) {
    mode_ = PickMode::kCommitted;
  }
  if (mode_ == PickMode::kAudit) {
    chosen = audit_.front();
    audit_.erase(audit_.begin());
  } else if (mode_ == PickMode::kCommitted) {
    const ObservedConfig* bo = nullptr;
    for (const auto& o : obs_) {
      if (bo == nullptr || o.wall_seconds < bo->wall_seconds) bo = &o;
    }
    TRIOLET_CHECK(bo != nullptr, "committed with no observations");
    chosen = bo->cfg;
  } else {
    const TunedCandidate* best = nullptr;
    for (const auto& cand : cands) {
      if (best == nullptr ||
          cand.predicted_seconds < best->predicted_seconds) {
        best = &cand;
      }
    }
    TRIOLET_CHECK(best != nullptr, "candidate lattice cannot be empty");
    chosen = *best;
  }
  pick_ = user_;
  pick_.tuner = nullptr;
  pick_.policy = chosen.policy;
  pick_.grain = chosen.grain;
  pick_.prefetch = chosen.prefetch;
  // What the model says the chosen configuration should cost — the figure
  // next round's mistrust check (and the benches' predicted column) reads.
  predicted_ = chosen.predicted_seconds;
  for (const auto& cand : cands) {
    if (cand.same_config(chosen)) predicted_ = cand.predicted_seconds;
  }
  have_pick_ = true;
}

}  // namespace triolet::sched
