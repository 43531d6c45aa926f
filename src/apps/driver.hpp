#pragma once

// Benchmark driver: turns real measurements into the paper's figures.
//
// The reproduction host has a few cores and the paper's cluster 128 (see
// DESIGN.md), so the scalability figures are produced by *trace simulation
// over real measurements*:
//
//   1. The benchmark's outer work domain is cut into U fine-grained units.
//      Every unit is executed FOR REAL with the system's actual code
//      (Triolet skeletons / low-level loops / Eden lists) and its duration
//      measured. Summing unit times reproduces the sequential time; any
//      node/core partition is a grouping of units.
//   2. Task input sizes come from the real serializer (sliced iterators for
//      Triolet, raw sub-arrays for MPI, chunked copies for Eden).
//   3. simulate_point() builds the SimTrace a given system would execute on
//      an (nodes x cores) machine — two-level scatter for Triolet and
//      C+MPI+OpenMP, flat master/worker farm for Eden — and replays it
//      against the network model.
//
// Who wins and where curves bend therefore comes from measured compute and
// measured bytes; only the machine constants (latency, bandwidth) are
// modelled, as any simulator must.

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "sim/network_model.hpp"
#include "sim/schedule.hpp"
#include "sim/trace.hpp"
#include "support/table.hpp"

namespace triolet::apps {

using index_t = std::int64_t;

/// Everything the simulator needs to know about one system running one
/// benchmark, gathered from real execution.
struct MeasuredSystem {
  std::string name;
  char glyph = '?';

  /// Duration of each fine-grained work unit, measured by running it.
  std::vector<double> unit_seconds;

  /// Serialized size of the task input covering units [ulo, uhi).
  std::function<std::int64_t(index_t ulo, index_t uhi)> input_bytes;

  /// Optional override for decompositions whose input footprint is not a
  /// function of a contiguous unit range (sgemm's 2D block decomposition:
  /// part i of k receives the A-rows and B-rows meeting at its block).
  /// When set, it replaces input_bytes for distribution-size accounting.
  std::function<std::int64_t(int part, int parts)> input_bytes_by_part;

  /// Serialized size of the partial result a node/worker returns for units
  /// [ulo, uhi) (constant for reductions, proportional for builds).
  std::function<std::int64_t(index_t ulo, index_t uhi)> result_bytes;

  /// Work done once at the root before distribution (e.g. sgemm transpose).
  double root_prep_seconds = 0.0;
  /// Whether root prep uses the root node's cores (localpar) or is serial.
  bool prep_parallelizable = false;

  /// Root-side cost of merging the partial result covering [ulo, uhi)
  /// (e.g. adding a histogram, or copying a block into place).
  std::function<double(index_t ulo, index_t uhi)> combine_seconds;

  sim::NetworkModel net;

  /// Eden only: per-task slowdown lottery.
  sim::StragglerModel straggler;

  /// Flat farm (Eden): one rank per core, master coordinates everything.
  /// Two-level (Triolet, C+MPI+OpenMP): one rank per node, threads inside.
  bool flat = false;

  /// Static contiguous intra-node scheduling (OpenMP static / Eden
  /// pre-split) vs dynamic claiming (Triolet work stealing).
  bool static_sched = false;
  /// Refines static_sched to round-robin (OpenMP schedule(static,1)); the
  /// tuned choice for skewed loops like tpacf's triangular sweeps.
  bool cyclic_sched = false;

  /// Eden only: total bytes its runtime can buffer in flight; 0 = no limit.
  /// Exceeding it fails the run (paper §4.3, sgemm at >= 2 nodes).
  std::int64_t buffer_capacity = 0;
};

/// One point of a scaling figure. `seconds` is NaN when the configuration
/// failed (Eden's buffer overflow).
struct ScalePoint {
  int cores = 0;
  double seconds = 0.0;

  bool failed() const { return std::isnan(seconds); }
};

/// Simulates `ms` on nodes x cores_per_node. Single total-core counts <=
/// cores_per_node run on one node.
ScalePoint simulate_point(const MeasuredSystem& ms, int nodes,
                          int cores_per_node);

/// The paper's x-axis: core counts from 1 to nodes*cores, filling one node
/// first, then whole nodes.
std::vector<std::pair<int, int>> standard_machine_points(int max_nodes,
                                                         int cores_per_node);

/// Runs a full scaling series; `seq_c_seconds` is the speedup denominator.
struct ScalingSeries {
  std::string name;
  char glyph;
  std::vector<ScalePoint> points;
};

ScalingSeries run_series(const MeasuredSystem& ms, int max_nodes,
                         int cores_per_node);

/// Renders paper-style output: a table of (cores, time, speedup) rows per
/// system plus an ASCII rendition of the figure.
void print_figure(const std::string& title, double seq_c_seconds,
                  const std::vector<ScalingSeries>& series);

/// Prints a PASS/DEVIATION line for a qualitative expectation taken from
/// the paper ("who wins, by roughly what factor, where crossovers fall").
/// The bench binaries use these to self-report how well each figure's shape
/// reproduced; EXPERIMENTS.md aggregates them.
void shape_check(const std::string& description, bool holds);

/// Speedup at the largest core count of a series (NaN if that point failed).
double final_speedup(const ScalingSeries& s, double seq_c_seconds);

/// The system's sequential-equivalent time: root prep plus the sum of all
/// measured unit durations. Figures use the low-level (C-loop) system's
/// value as the speedup denominator so numerator and denominator come from
/// identically measured code.
double seq_equivalent_seconds(const MeasuredSystem& ms);

/// Measures the wall time of `fn()` with small repetition (median).
double measure_seconds(const std::function<void()>& fn, int repeats = 3);

/// Splits U units into per-unit measured durations by timing `run_unit` on
/// each unit index. The sweep runs `passes` times and keeps each unit's
/// minimum, filtering out OS-preemption spikes (a context switch inside a
/// 50 us unit would otherwise skew the whole schedule simulation). The
/// first pass doubles as cache warmup.
std::vector<double> measure_units(index_t units,
                                  const std::function<void(index_t)>& run_unit,
                                  int passes = 2);

}  // namespace triolet::apps
