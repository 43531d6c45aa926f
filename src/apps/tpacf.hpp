#pragma once

// tpacf (paper §4.4): two-point angular correlation function.
//
// Given one observed set and R random sets of points on the unit sphere,
// three families of histograms of pairwise angular separations are computed:
//   DD   the observed set against itself (unique pairs, triangular loop)
//   DR_j the observed set against each random set j (full cross product)
//   RR_j each random set against itself (triangular loop)
// All pair scores land in one histogram of 3*nbins cells (kind-offset bins),
// mirroring the paper's three parallel histogramming loops whose common code
// is factored into one correlation function (Figure 6).
//
// The outer iteration space is the flattened (job, element) domain, so work
// partitions across data sets *and* across elements of a data set, as the
// paper requires.

#include "apps/driver.hpp"
#include "array/array.hpp"
#include "core/hints.hpp"
#include "net/comm.hpp"

namespace triolet::apps {

struct Vec3 {
  float x = 0, y = 0, z = 0;
  bool operator==(const Vec3&) const = default;
};

struct TpacfProblem {
  std::vector<Vec3> obs;
  std::vector<std::vector<Vec3>> rands;
  index_t nbins = 32;

  index_t points() const { return static_cast<index_t>(obs.size()); }
  index_t sets() const { return static_cast<index_t>(rands.size()); }
  /// jobs: 1 DD + R DR + R RR, each over `points()` outer elements.
  index_t jobs() const { return 1 + 2 * sets(); }
  index_t outer_size() const { return jobs() * points(); }
};
TRIOLET_SERIALIZE_FIELDS(TpacfProblem, obs, rands, nbins)

TpacfProblem make_tpacf(index_t points, index_t random_sets, index_t nbins,
                        std::uint64_t seed);

using TpacfHist = Array1<std::int64_t>;  // 3 * nbins cells: DD | DR | RR

TpacfHist tpacf_seq_c(const TpacfProblem& p);
TpacfHist tpacf_triolet(const TpacfProblem& p, core::ParHint hint);
TpacfHist tpacf_triolet_dist(net::Comm& comm, const TpacfProblem& p);

/// The Figure 6 decomposition verbatim: DD computed at the root with
/// localpar; DR_j and RR_j distributed with par *across the random data
/// sets* (one outer task per set), each set's correlation running with
/// localpar threads inside its node — randomSetsCorrelation's
/// reduce(add, empty, par(corr1(r) for r in rands)).
TpacfHist tpacf_triolet_dist_fig6(net::Comm& comm, const TpacfProblem& p);
TpacfHist tpacf_eden_seq(const TpacfProblem& p);
TpacfHist tpacf_eden_farm(net::Comm& comm, const TpacfProblem& p);
TpacfHist tpacf_lowlevel(const TpacfProblem& p);
TpacfHist tpacf_lowlevel_dist(net::Comm& comm, const TpacfProblem& p);

struct TpacfMeasured {
  double seq_c = 0, seq_triolet = 0, seq_eden = 0;
  MeasuredSystem triolet, lowlevel, eden;
};
TpacfMeasured measure_tpacf(const TpacfProblem& p, index_t units);

}  // namespace triolet::apps
