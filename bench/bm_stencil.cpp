// 2D heat sweep under dist::halo_exchange: ghost-row traffic and
// communication/compute overlap at 8 ranks.
//
// Each rank owns a contiguous row slab of an ny x nx grid (make_halo_slab)
// and runs Jacobi sweeps of the 5-point clamped heat stencil via
// halo_sweep: the exchange posts both neighbor bands as zero-copy borrowed
// segments, the interior rows compute while the bands are in flight, and
// only then are the ghost rows landed and the boundary computed. The
// alternative a skeleton-only system forces is rescattering the whole grid
// every sweep; the baseline here measures exactly that (build_array1 of the
// full grid per sweep through the scheduled path would drown the signal, so
// the baseline ships each slab's full payload through the same zero-copy
// send path the halo bands use).
//
// Measured: rank-0 wall time of the sweep loop, CommStats.views halo
// counters (halo_bytes, ghost_cells, halo_overlap_seconds), and the
// boundary-vs-payload traffic ratio. Correctness: the distributed grid
// after k sweeps is compared bitwise against a sequential reference at
// every rank count.
//
// Flags: --ranks=N --sweeps=N --check (CI smoke: small grid, no timing
// thresholds; exit 1 unless the bitwise and O(boundary) checks hold).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/driver.hpp"
#include "bench_problems.hpp"
#include "core/triolet.hpp"
#include "dist/halo.hpp"
#include "net/cluster.hpp"
#include "support/table.hpp"
#include "support/timing.hpp"

using namespace triolet;
using core::index_t;

namespace {

double initial(index_t y, index_t x) {
  return std::sin(0.05 * static_cast<double>(y)) +
         std::cos(0.03 * static_cast<double>(x));
}

/// Clamped 5-point heat kernel: reads row y-1/y+1 where they exist (ghost
/// rows stand in for the neighbor's boundary), clamps at physical edges.
struct Heat {
  template <typename G>
  double operator()(const G& g, index_t y, index_t x) const {
    const index_t ylo = std::max(y - 1, g.row_lo());
    const index_t yhi = std::min(y + 1, g.row_hi() - 1);
    const index_t xlo = x > 0 ? x - 1 : x;
    const index_t xhi = x + 1 < g.cols() ? x + 1 : x;
    return 0.2 * (g(y, x) + g(ylo, x) + g(yhi, x) + g(y, xlo) + g(y, xhi));
  }
};

/// Sequential reference: the same sweeps on one undivided grid.
std::vector<double> reference(index_t ny, index_t nx, int sweeps) {
  Array2<double> cur(ny, nx, 0.0), next(ny, nx, 0.0);
  for (index_t y = 0; y < ny; ++y) {
    for (index_t x = 0; x < nx; ++x) cur(y, x) = initial(y, x);
  }
  Heat h;
  for (int s = 0; s < sweeps; ++s) {
    for (index_t y = 0; y < ny; ++y) {
      for (index_t x = 0; x < nx; ++x) next(y, x) = h(cur, y, x);
    }
    std::swap(cur, next);
  }
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(ny * nx));
  for (index_t y = 0; y < ny; ++y) {
    for (index_t x = 0; x < nx; ++x) out.push_back(cur(y, x));
  }
  return out;
}

struct RunResult {
  double seconds = 0;
  std::vector<double> grid;  // gathered owned rows, row-major
  net::ViewStats views;
  std::int64_t bytes_sent = 0;
};

/// Distributed sweeps via halo_sweep; gathers the owned rows to rank 0
/// after the clock stops.
RunResult run_halo(int ranks, index_t ny, index_t nx, int sweeps) {
  RunResult out;
  auto res = net::Cluster::run(ranks, [&](net::Comm& comm) {
    auto cur = dist::make_halo_slab<double>(ny, nx, 1, comm.rank(),
                                            comm.size());
    auto next = dist::make_halo_slab<double>(ny, nx, 1, comm.rank(),
                                             comm.size());
    for (index_t y = cur.y0; y < cur.y1; ++y) {
      for (index_t x = 0; x < nx; ++x) cur.grid(y, x) = initial(y, x);
    }
    comm.barrier();
    Stopwatch sw;
    for (int s = 0; s < sweeps; ++s) {
      dist::halo_sweep(comm, cur, next, Heat{}, s);
      std::swap(cur, next);
    }
    comm.barrier();
    const double secs = sw.seconds();
    std::vector<double> mine;
    mine.reserve(static_cast<std::size_t>(cur.rows() * nx));
    for (index_t y = cur.y0; y < cur.y1; ++y) {
      for (index_t x = 0; x < nx; ++x) mine.push_back(cur.grid(y, x));
    }
    auto all = comm.gather(mine, 0);
    if (comm.rank() == 0) {
      out.seconds = secs;
      for (auto& part : all) {
        out.grid.insert(out.grid.end(), part.begin(), part.end());
      }
    }
  });
  if (!res.ok) {
    std::fprintf(stderr, "cluster failed: %s\n", res.error.c_str());
    std::exit(1);
  }
  out.views = res.total_stats.views;
  out.bytes_sent = res.total_stats.bytes_sent;
  return out;
}

/// Rescatter baseline: identical sweeps, but each sweep every rank also
/// ships its full slab payload to a neighbor (what a system without ghost
/// exchange pays to rebuild remote state), then waits for the mirror copy.
RunResult run_rescatter(int ranks, index_t ny, index_t nx, int sweeps) {
  RunResult out;
  auto res = net::Cluster::run(ranks, [&](net::Comm& comm) {
    auto cur = dist::make_halo_slab<double>(ny, nx, 1, comm.rank(),
                                            comm.size());
    auto next = dist::make_halo_slab<double>(ny, nx, 1, comm.rank(),
                                             comm.size());
    for (index_t y = cur.y0; y < cur.y1; ++y) {
      for (index_t x = 0; x < nx; ++x) cur.grid(y, x) = initial(y, x);
    }
    const int peer = comm.rank() ^ 1;  // pairwise full-slab swap
    comm.barrier();
    Stopwatch sw;
    for (int s = 0; s < sweeps; ++s) {
      if (peer < comm.size()) {
        std::vector<double> slab;
        slab.reserve(static_cast<std::size_t>(cur.rows() * nx));
        for (index_t y = cur.y0; y < cur.y1; ++y) {
          for (index_t x = 0; x < nx; ++x) slab.push_back(cur.grid(y, x));
        }
        comm.send(peer, 7, slab);
        (void)comm.recv<std::vector<double>>(peer, 7);
      }
      dist::halo_sweep(comm, cur, next, Heat{}, s);
      std::swap(cur, next);
    }
    comm.barrier();
    if (comm.rank() == 0) out.seconds = sw.seconds();
  });
  if (!res.ok) {
    std::fprintf(stderr, "cluster failed: %s\n", res.error.c_str());
    std::exit(1);
  }
  out.bytes_sent = res.total_stats.bytes_sent;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int ranks = bench::kNodes;
  int sweeps = 50;
  bool check_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--ranks=", 0) == 0) {
      ranks = std::atoi(arg.c_str() + 8);
    } else if (arg.rfind("--sweeps=", 0) == 0) {
      sweeps = std::atoi(arg.c_str() + 9);
    } else if (arg == "--check") {
      check_only = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  const index_t ny = check_only ? 96 : 1024;
  const index_t nx = check_only ? 64 : 1024;
  if (check_only) sweeps = std::min(sweeps, 6);

  std::printf("== bm_stencil: 2D heat via halo_exchange, %d ranks, "
              "%lld x %lld grid, %d sweeps ==\n",
              ranks, static_cast<long long>(ny), static_cast<long long>(nx),
              sweeps);

  const auto ref = reference(ny, nx, sweeps);

  // Warm-up, then measure.
  (void)run_halo(ranks, ny, nx, 2);
  RunResult halo = run_halo(ranks, ny, nx, sweeps);
  RunResult rescatter = run_rescatter(ranks, ny, nx, sweeps);

  const auto& vs = halo.views;
  // Boundary traffic per sweep: 2*(ranks-1) bands of radius*nx cells.
  const std::int64_t expect_ghost =
      static_cast<std::int64_t>(sweeps) * 2 * (ranks - 1) * nx;
  const std::int64_t payload_cells =
      static_cast<std::int64_t>(ny) * nx * sweeps;

  Table t({"variant", "time (s)", "bytes sent", "ghost cells",
           "overlap (s)"});
  t.add_row({"halo exchange", Table::num(halo.seconds, 4),
             Table::num(halo.bytes_sent), Table::num(vs.ghost_cells),
             Table::num(vs.halo_overlap_seconds, 4)});
  t.add_row({"full-slab swap", Table::num(rescatter.seconds, 4),
             Table::num(rescatter.bytes_sent), "-", "-"});
  t.print("2D heat, " + std::to_string(sweeps) + " sweeps, " +
          std::to_string(ranks) + " ranks");

  bool ok = true;
  auto check = [&](const std::string& what, bool holds) {
    apps::shape_check(what, holds);
    ok = ok && holds;
  };
  check("distributed grid bitwise equals sequential reference",
        halo.grid.size() == ref.size() &&
            std::memcmp(halo.grid.data(), ref.data(),
                        ref.size() * sizeof(double)) == 0);
  {
    RunResult alt = run_halo(std::max(2, ranks / 2), ny, nx, sweeps);
    check("bitwise identical across rank counts",
          alt.grid.size() == ref.size() &&
              std::memcmp(alt.grid.data(), ref.data(),
                          ref.size() * sizeof(double)) == 0);
  }
  check("ghost traffic is O(boundary): exact band cell count",
        vs.ghost_cells == expect_ghost);
  check("halo bytes are a small fraction of the payload a rescatter ships",
        vs.halo_bytes < payload_cells * static_cast<std::int64_t>(
                            sizeof(double)) / 4);
  check("exchange overlap window is nonzero", vs.halo_overlap_seconds > 0.0);
  check("every sweep ran one exchange per rank",
        vs.halo_exchanges == static_cast<std::int64_t>(sweeps) * ranks);

  std::printf("\n{\n");
  std::printf("  \"workload\": {\"ny\": %lld, \"nx\": %lld, \"sweeps\": %d, "
              "\"ranks\": %d, \"radius\": 1},\n",
              static_cast<long long>(ny), static_cast<long long>(nx), sweeps,
              ranks);
  std::printf("  \"seconds\": {\"halo\": %.4f, \"full_slab_swap\": %.4f},\n",
              halo.seconds, rescatter.seconds);
  std::printf("  \"bytes_sent\": {\"halo\": %lld, \"full_slab_swap\": "
              "%lld},\n",
              static_cast<long long>(halo.bytes_sent),
              static_cast<long long>(rescatter.bytes_sent));
  std::printf("  \"views\": {\"halo_bytes\": %lld, \"ghost_cells\": %lld, "
              "\"halo_messages\": %lld, \"halo_overlap_seconds\": %.4f},\n",
              static_cast<long long>(vs.halo_bytes),
              static_cast<long long>(vs.ghost_cells),
              static_cast<long long>(vs.halo_messages),
              vs.halo_overlap_seconds);
  std::printf("  \"bitwise_identical_to_sequential\": %s\n",
              ok ? "true" : "false");
  std::printf("}\n");
  return ok ? 0 : 1;
}
