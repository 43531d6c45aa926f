#pragma once

// cutcp (paper §4.5): cutoff Coulombic potential on a 3D lattice.
//
// Every charged atom contributes potential to the grid points within cutoff
// distance c; points farther away are skipped. The body is "essentially a
// floating-point histogram: it loops over atoms, loops over nearby grid
// points, skips points that are not within distance c, and updates the grid
// at the remaining points" — nested loops and conditionals in C, nested
// traversals (concat_map + filter) feeding float_histogram in Triolet.
//
// The output grid is large relative to the computation, so summing per-node
// grids at the root dominates scaling (the early saturation of Figure 8).

#include "apps/driver.hpp"
#include "array/array.hpp"
#include "core/hints.hpp"
#include "net/comm.hpp"

namespace triolet::apps {

struct Atom {
  float x = 0, y = 0, z = 0, q = 0;
  bool operator==(const Atom&) const = default;
};

struct GridSpec {
  index_t nx = 0, ny = 0, nz = 0;  // lattice points per axis
  float spacing = 0.5f;            // lattice pitch
  float cutoff = 4.0f;             // interaction radius

  index_t cells() const { return nx * ny * nz; }
  bool operator==(const GridSpec&) const = default;
};

struct CutcpProblem {
  Array1<Atom> atoms;
  GridSpec grid;
};

CutcpProblem make_cutcp(index_t atoms, index_t nx, index_t ny, index_t nz,
                        float cutoff, std::uint64_t seed);

using CutcpGrid = Array1<float>;  // flattened (z*ny + y)*nx + x

double cutcp_rel_error(const CutcpGrid& ref, const CutcpGrid& got);

CutcpGrid cutcp_seq_c(const CutcpProblem& p);
CutcpGrid cutcp_triolet(const CutcpProblem& p, core::ParHint hint);
CutcpGrid cutcp_triolet_dist(net::Comm& comm, const CutcpProblem& p);
CutcpGrid cutcp_eden_seq(const CutcpProblem& p);
CutcpGrid cutcp_eden_farm(net::Comm& comm, const CutcpProblem& p);
CutcpGrid cutcp_lowlevel(const CutcpProblem& p);
CutcpGrid cutcp_lowlevel_dist(net::Comm& comm, const CutcpProblem& p);

struct CutcpMeasured {
  double seq_c = 0, seq_triolet = 0, seq_eden = 0;
  MeasuredSystem triolet, lowlevel, eden;
};
CutcpMeasured measure_cutcp(const CutcpProblem& p, index_t units);

}  // namespace triolet::apps
