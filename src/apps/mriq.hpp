#pragma once

// mri-q (paper §4.2): non-uniform 3D inverse Fourier transform.
//
// For every image pixel r = (x, y, z), sum the contribution of every
// k-space sample k:
//     Q(r) = sum_k  phi[k] * exp(2*pi*i * (kx*x + ky*y + kz*z))
// accumulated as separate real and imaginary parts.
//
// Variants:
//   mriq_seq_c          plain C-style loop nest (speedup denominator)
//   mriq_triolet        the paper's two-line skeleton program; hint selects
//                       sequential / threaded execution
//   mriq_triolet_dist   the same program under par() on a cluster
//   mriq_eden_seq       chunked-vector Eden port with the deoptimized
//                       sinf/cosf path (§4.2)
//   mriq_eden_farm      Eden's flat process farm over pixel chunks
//   mriq_lowlevel       hand-partitioned threads (the OpenMP analogue)
//   mriq_lowlevel_dist  scatter/broadcast/gather point-to-point code
//                       (the C+MPI+OpenMP analogue)

#include "apps/driver.hpp"
#include "array/array.hpp"
#include "core/hints.hpp"
#include "net/comm.hpp"

namespace triolet::apps {

struct KSpace {
  std::vector<float> kx, ky, kz, phi;
  bool operator==(const KSpace&) const = default;
};
TRIOLET_SERIALIZE_FIELDS(KSpace, kx, ky, kz, phi)

struct MriqProblem {
  Array1<float> x, y, z;  // pixel coordinates
  KSpace ks;              // sample trajectory + magnitudes

  index_t pixels() const { return x.size(); }
  index_t samples() const { return static_cast<index_t>(ks.kx.size()); }
};

struct MriqResult {
  std::vector<float> qr, qi;
};

MriqProblem make_mriq(index_t pixels, index_t samples, std::uint64_t seed);

/// Parboil's ComputePhiMag pre-kernel: phi[k] = phiR[k]^2 + phiI[k]^2,
/// written as a Triolet zip/map pipeline. make_mriq synthesizes phi
/// directly; this kernel is exposed for inputs given as complex samples.
std::vector<float> mriq_phi_mag(const std::vector<float>& phi_r,
                                const std::vector<float>& phi_i);

/// Relative L2 error between two results.
double mriq_rel_error(const MriqResult& a, const MriqResult& b);

MriqResult mriq_seq_c(const MriqProblem& p);
MriqResult mriq_triolet(const MriqProblem& p, core::ParHint hint);
MriqResult mriq_triolet_dist(net::Comm& comm, const MriqProblem& p);
MriqResult mriq_eden_seq(const MriqProblem& p);
MriqResult mriq_eden_farm(net::Comm& comm, const MriqProblem& p);
MriqResult mriq_lowlevel(const MriqProblem& p);
MriqResult mriq_lowlevel_dist(net::Comm& comm, const MriqProblem& p);

/// Builds the three MeasuredSystem profiles (Triolet, C+MPI+OpenMP, Eden)
/// for the scaling figure by executing `units` pixel-range work units with
/// each system's real code and measuring durations and message sizes.
struct MriqMeasured {
  double seq_c = 0, seq_triolet = 0, seq_eden = 0;  // Figure 3 columns
  MeasuredSystem triolet, lowlevel, eden;
};
MriqMeasured measure_mriq(const MriqProblem& p, index_t units);

}  // namespace triolet::apps
