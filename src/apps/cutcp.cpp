#include "apps/cutcp.hpp"

#include <cmath>

#include "core/triolet.hpp"
#include "dist/skeletons.hpp"
#include "eden/farm.hpp"
#include "runtime/parallel.hpp"
#include "support/rng.hpp"

namespace triolet::apps {

namespace {

/// Softened cutoff Coulomb kernel: s(r) = q * (1 - (r/c)^2)^2 / max(r, eps).
inline float potential(float q, float r2, float inv_cutoff2, float eps) {
  float t = 1.0f - r2 * inv_cutoff2;
  float r = std::sqrt(r2);
  return q * t * t / std::max(r, eps);
}

/// Axis-aligned box of lattice points within cutoff of atom `a`.
inline core::Dim3 neighborhood(const GridSpec& g, const Atom& a) {
  auto clampi = [](index_t v, index_t lo, index_t hi) {
    return std::min(std::max(v, lo), hi);
  };
  auto lo = [&](float c, index_t n) {
    return clampi(static_cast<index_t>(std::ceil((c - g.cutoff) / g.spacing)),
                  0, n);
  };
  auto hi = [&](float c, index_t n) {
    return clampi(static_cast<index_t>(std::floor((c + g.cutoff) / g.spacing)) +
                      1,
                  0, n);
  };
  return core::Dim3{lo(a.z, g.nz), hi(a.z, g.nz), lo(a.y, g.ny),
                    hi(a.y, g.ny), lo(a.x, g.nx), hi(a.x, g.nx)};
}

/// The Triolet program: a nested traversal per atom over its neighborhood
/// box, a filter for the cutoff sphere, and a map to (cell, weight) pairs —
/// fused into the outer parallel loop and consumed by float_histogram.
auto cutcp_iter(const Array1<Atom>& atoms, GridSpec g) {
  const float cutoff2 = g.cutoff * g.cutoff;
  const float inv_cutoff2 = 1.0f / cutoff2;
  const float eps = 0.25f * g.spacing;
  return core::concat_map(core::from_array(atoms), [g, cutoff2, inv_cutoff2,
                                                    eps](Atom a) {
    auto cells = core::map(
        core::indices(neighborhood(g, a)), [g, a](core::Index3 c) {
          float dx = static_cast<float>(c.x) * g.spacing - a.x;
          float dy = static_cast<float>(c.y) * g.spacing - a.y;
          float dz = static_cast<float>(c.z) * g.spacing - a.z;
          float r2 = dx * dx + dy * dy + dz * dz;
          index_t cell = (c.z * g.ny + c.y) * g.nx + c.x;
          return std::pair<index_t, float>(cell, r2);
        });
    auto near = core::filter(
        cells, [cutoff2](const std::pair<index_t, float>& cw) {
          return cw.second < cutoff2;
        });
    return core::map(near, [a, inv_cutoff2,
                            eps](const std::pair<index_t, float>& cw) {
      return std::pair<index_t, float>(
          cw.first, potential(a.q, cw.second, inv_cutoff2, eps));
    });
  });
}

/// Plain loop nest shared by the C and low-level variants.
void cutcp_range_c(const CutcpProblem& p, index_t lo, index_t hi, float* grid) {
  const GridSpec& g = p.grid;
  const float cutoff2 = g.cutoff * g.cutoff;
  const float inv_cutoff2 = 1.0f / cutoff2;
  const float eps = 0.25f * g.spacing;
  for (index_t i = lo; i < hi; ++i) {
    const Atom a = p.atoms[i];
    core::Dim3 box = neighborhood(g, a);
    for (index_t z = box.z0; z < box.z1; ++z) {
      float dz = static_cast<float>(z) * g.spacing - a.z;
      for (index_t y = box.y0; y < box.y1; ++y) {
        float dy = static_cast<float>(y) * g.spacing - a.y;
        for (index_t x = box.x0; x < box.x1; ++x) {
          float dx = static_cast<float>(x) * g.spacing - a.x;
          float r2 = dx * dx + dy * dy + dz * dz;
          if (r2 < cutoff2) {
            grid[(z * g.ny + y) * g.nx + x] +=
                potential(a.q, r2, inv_cutoff2, eps);
          }
        }
      }
    }
  }
}

/// Eden's version: a list-comprehension-shaped pipeline that materializes
/// the (cell, weight) pairs of each atom into a boxed intermediate before
/// folding them into the grid — the multi-stage generate-then-consume
/// structure the paper's §1 example has before fusion.
void cutcp_range_eden(const CutcpProblem& p, index_t lo, index_t hi,
                      float* grid) {
  const GridSpec& g = p.grid;
  const float cutoff2 = g.cutoff * g.cutoff;
  const float inv_cutoff2 = 1.0f / cutoff2;
  const float eps = 0.25f * g.spacing;
  for (index_t i = lo; i < hi; ++i) {
    const Atom a = p.atoms[i];
    core::Dim3 box = neighborhood(g, a);
    // Stage 1: generate the intermediate collection (heap traffic per atom).
    std::vector<std::pair<index_t, float>> pairs;
    for (index_t z = box.z0; z < box.z1; ++z) {
      for (index_t y = box.y0; y < box.y1; ++y) {
        for (index_t x = box.x0; x < box.x1; ++x) {
          float dx = static_cast<float>(x) * g.spacing - a.x;
          float dy = static_cast<float>(y) * g.spacing - a.y;
          float dz = static_cast<float>(z) * g.spacing - a.z;
          float r2 = dx * dx + dy * dy + dz * dz;
          if (r2 < cutoff2) {
            pairs.emplace_back(
                (z * g.ny + y) * g.nx + x,
                a.q * static_cast<float>(
                          (1.0L - static_cast<long double>(r2) * inv_cutoff2) *
                          (1.0L - static_cast<long double>(r2) * inv_cutoff2) /
                          std::max(sqrtl(static_cast<long double>(r2)),
                                   static_cast<long double>(eps))));
          }
        }
      }
    }
    pairs.shrink_to_fit();  // per-atom reallocation churn
    // Stage 2: consume it.
    for (auto [cell, w] : pairs) grid[cell] += w;
  }
}

struct CutcpTask {
  Array1<Atom> atoms;
  GridSpec grid;
};
TRIOLET_SERIALIZE_FIELDS(CutcpTask, atoms, grid)

}  // namespace

CutcpProblem make_cutcp(index_t atoms, index_t nx, index_t ny, index_t nz,
                        float cutoff, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  CutcpProblem p;
  p.grid.nx = nx;
  p.grid.ny = ny;
  p.grid.nz = nz;
  p.grid.spacing = 0.5f;
  p.grid.cutoff = cutoff;
  p.atoms = Array1<Atom>(atoms);
  const float wx = static_cast<float>(nx - 1) * p.grid.spacing;
  const float wy = static_cast<float>(ny - 1) * p.grid.spacing;
  const float wz = static_cast<float>(nz - 1) * p.grid.spacing;
  for (index_t i = 0; i < atoms; ++i) {
    p.atoms[i] = Atom{static_cast<float>(rng.uniform(0, wx)),
                     static_cast<float>(rng.uniform(0, wy)),
                     static_cast<float>(rng.uniform(0, wz)),
                     static_cast<float>(rng.uniform(-1, 1))};
  }
  return p;
}

double cutcp_rel_error(const CutcpGrid& ref, const CutcpGrid& got) {
  TRIOLET_CHECK(ref.size() == got.size(), "grid size mismatch");
  double num = 0, den = 0;
  for (index_t i = 0; i < ref.size(); ++i) {
    double d = static_cast<double>(ref[i]) - got[i];
    num += d * d;
    den += static_cast<double>(ref[i]) * ref[i];
  }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

CutcpGrid cutcp_seq_c(const CutcpProblem& p) {
  CutcpGrid grid(p.grid.cells(), 0.0f);
  cutcp_range_c(p, 0, p.atoms.size(), &grid[0]);
  return grid;
}

CutcpGrid cutcp_triolet(const CutcpProblem& p, core::ParHint hint) {
  return core::float_histogram<float>(
      p.grid.cells(), core::with_hint(cutcp_iter(p.atoms, p.grid), hint));
}

CutcpGrid cutcp_triolet_dist(net::Comm& comm, const CutcpProblem& p) {
  return dist::float_histogram<float>(
      comm, p.grid.cells(),
      [&] { return core::par(cutcp_iter(p.atoms, p.grid)); });
}

CutcpGrid cutcp_eden_seq(const CutcpProblem& p) {
  CutcpGrid grid(p.grid.cells(), 0.0f);
  cutcp_range_eden(p, 0, p.atoms.size(), &grid[0]);
  return grid;
}

CutcpGrid cutcp_eden_farm(net::Comm& comm, const CutcpProblem& p) {
  std::vector<CutcpTask> tasks;
  const int workers = std::max(1, comm.size() - 1);
  if (comm.rank() == 0) {
    const index_t n = p.atoms.size();
    for (int w = 0; w < workers; ++w) {
      index_t lo = n * w / workers, hi = n * (w + 1) / workers;
      tasks.push_back(CutcpTask{p.atoms.slice(lo, hi), p.grid});
    }
  }
  using Out = std::vector<float>;
  auto results = eden::farm<CutcpTask, Out>(comm, tasks, [](const CutcpTask& t) {
    std::vector<float> grid(static_cast<std::size_t>(t.grid.cells()), 0.0f);
    CutcpProblem local{t.atoms, t.grid};
    cutcp_range_eden(local, t.atoms.lo(), t.atoms.hi(), grid.data());
    return grid;
  });
  if (comm.rank() != 0) return {};
  CutcpGrid grid(p.grid.cells(), 0.0f);
  for (const auto& part : results) {
    for (index_t i = 0; i < grid.size(); ++i) {
      grid[i] += part[static_cast<std::size_t>(i)];
    }
  }
  return grid;
}

CutcpGrid cutcp_lowlevel(const CutcpProblem& p) {
  auto& pool = runtime::current_pool();
  runtime::PerThread<std::vector<float>> priv(
      pool, std::vector<float>(static_cast<std::size_t>(p.grid.cells()), 0.0f));
  runtime::parallel_for(pool, 0, p.atoms.size(), [&](index_t lo, index_t hi) {
    cutcp_range_c(p, lo, hi, priv.local().data());
  });
  CutcpGrid grid(p.grid.cells(), 0.0f);
  for (const auto& part : priv.slots()) {
    for (index_t i = 0; i < grid.size(); ++i) {
      grid[i] += part[static_cast<std::size_t>(i)];
    }
  }
  return grid;
}

CutcpGrid cutcp_lowlevel_dist(net::Comm& comm, const CutcpProblem& p) {
  constexpr int kTagAtoms = 500, kTagGrid = 501, kTagSpec = 502;
  const int size = comm.size();
  const int rank = comm.rank();

  Array1<Atom> my_atoms;
  GridSpec spec;
  if (rank == 0) {
    const index_t n = p.atoms.size();
    for (int r = 1; r < size; ++r) {
      comm.send(r, kTagSpec, p.grid);
      comm.send(r, kTagAtoms, p.atoms.slice(n * r / size, n * (r + 1) / size));
    }
    my_atoms = p.atoms.slice(0, n / size);
    spec = p.grid;
  } else {
    spec = comm.recv<GridSpec>(0, kTagSpec);
    my_atoms = comm.recv<Array1<Atom>>(0, kTagAtoms);
  }

  CutcpProblem local{my_atoms, spec};
  auto& pool = runtime::current_pool();
  runtime::PerThread<std::vector<float>> priv(
      pool, std::vector<float>(static_cast<std::size_t>(spec.cells()), 0.0f));
  runtime::parallel_for(pool, my_atoms.lo(), my_atoms.hi(),
                        [&](index_t lo, index_t hi) {
                          cutcp_range_c(local, lo, hi, priv.local().data());
                        });
  std::vector<float> part(static_cast<std::size_t>(spec.cells()), 0.0f);
  for (const auto& s : priv.slots()) {
    for (std::size_t i = 0; i < part.size(); ++i) part[i] += s[i];
  }

  if (rank != 0) {
    comm.send(0, kTagGrid, part);
    return {};
  }
  CutcpGrid grid(spec.cells(), 0.0f);
  for (index_t i = 0; i < grid.size(); ++i) {
    grid[i] = part[static_cast<std::size_t>(i)];
  }
  for (int r = 1; r < size; ++r) {
    auto other = comm.recv<std::vector<float>>(r, kTagGrid);
    for (index_t i = 0; i < grid.size(); ++i) {
      grid[i] += other[static_cast<std::size_t>(i)];
    }
  }
  return grid;
}

CutcpMeasured measure_cutcp(const CutcpProblem& p, index_t units) {
  CutcpMeasured m;
  const index_t n = p.atoms.size();
  auto at = [n, units](index_t u) { return n * u / units; };
  const auto grid_bytes = static_cast<std::int64_t>(p.grid.cells()) * 4 + 32;

  m.seq_c = measure_seconds([&] { (void)cutcp_seq_c(p); });
  m.seq_triolet =
      measure_seconds([&] { (void)cutcp_triolet(p, core::ParHint::kSeq); });
  m.seq_eden = measure_seconds([&] { (void)cutcp_eden_seq(p); }, 2);

  // Root-side grid merge cost, measured for real.
  std::vector<float> ga(static_cast<std::size_t>(p.grid.cells()), 1.0f);
  std::vector<float> gb(static_cast<std::size_t>(p.grid.cells()), 2.0f);
  const double grid_add_seconds = measure_seconds([&] {
    for (std::size_t i = 0; i < ga.size(); ++i) ga[i] += gb[i];
  });

  // ---- Triolet.
  {
    auto it = cutcp_iter(p.atoms, p.grid);
    std::vector<float> grid(static_cast<std::size_t>(p.grid.cells()), 0.0f);
    m.triolet.name = "Triolet";
    m.triolet.glyph = 'T';
    m.triolet.unit_seconds = measure_units(units, [&](index_t u) {
      core::visit_ordinals(it, at(u), at(u + 1),
                           [&](const std::pair<index_t, float>& cw) {
                             grid[static_cast<std::size_t>(cw.first)] +=
                                 cw.second;
                           });
    });
    m.triolet.input_bytes = [it, at](index_t ulo, index_t uhi) {
      return static_cast<std::int64_t>(
          serial::wire_size(it.slice(core::Seq{at(ulo), at(uhi)})));
    };
    m.triolet.net.alloc_multiplier = 3.0;
    m.triolet.net.alloc_threshold_bytes = 128 * 1024;  // the 60% allocation overhead
  }

  // ---- C+MPI+OpenMP.
  {
    std::vector<float> grid(static_cast<std::size_t>(p.grid.cells()), 0.0f);
    m.lowlevel.name = "C+MPI+OpenMP";
    m.lowlevel.glyph = 'C';
    m.lowlevel.unit_seconds = measure_units(units, [&](index_t u) {
      cutcp_range_c(p, at(u), at(u + 1), grid.data());
    });
    m.lowlevel.input_bytes = [at](index_t ulo, index_t uhi) {
      return (at(uhi) - at(ulo)) * 16 + 96;  // atom slice + grid spec
    };
    // MPI sends directly from preallocated buffers; no serializer packing.
    m.lowlevel.net.copy_cost_per_byte = 0.1e-9;
    m.lowlevel.static_sched = true;
  }

  // ---- Eden.
  {
    std::vector<float> grid(static_cast<std::size_t>(p.grid.cells()), 0.0f);
    m.eden.name = "Eden";
    m.eden.glyph = 'E';
    m.eden.unit_seconds = measure_units(units, [&](index_t u) {
      cutcp_range_eden(p, at(u), at(u + 1), grid.data());
    });
    m.eden.input_bytes = [at](index_t ulo, index_t uhi) {
      return (at(uhi) - at(ulo)) * 16 + 256;
    };
    m.eden.flat = true;
    m.eden.static_sched = true;
    m.eden.straggler = {0.02, 3.0, 0xEDE14};
    m.eden.net.copy_cost_per_byte *= 3.0;
    m.eden.net.fixed_overhead *= 4.0;
  }

  // Every part returns a whole grid; merging is a measured vector add.
  auto result_bytes = [grid_bytes](index_t, index_t) { return grid_bytes; };
  auto combine = [grid_add_seconds](index_t, index_t) {
    return grid_add_seconds;
  };
  for (MeasuredSystem* s : {&m.triolet, &m.lowlevel, &m.eden}) {
    s->result_bytes = result_bytes;
    s->combine_seconds = combine;
  }
  return m;
}

}  // namespace triolet::apps
