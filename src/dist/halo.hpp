#pragma once

// Halo (ghost-cell) exchange for row-decomposed stencil grids.
//
// Dense scheduled skeletons move *task* data; stencils need the opposite: a
// rank keeps its slab resident forever and per sweep trades only the
// boundary rows with its two neighbors. `halo_exchange` is that trade as an
// async skeleton:
//
//   * Each rank owns global rows [y0, y1) of an ny x nx grid, stored in an
//     Array2<T> widened by `radius` ghost rows on each interior edge
//     (make_halo_slab). Row-major storage makes every row band one
//     contiguous span, so sends reuse the PR 3 zero-copy iovec path: the
//     boundary band is a borrowed segment gathered straight into the
//     delivered payload — never staged through the serializer.
//   * The exchange is split-phase for overlap: constructing a HaloExchange
//     posts both irecvs and sends both bands, and sends never block; the
//     caller computes its interior rows (which need no ghosts) while the
//     neighbors' bands arrive, then calls finish() to land the ghosts and
//     compute the boundary. halo_sweep packages that order for Jacobi-style
//     (read cur, write next) sweeps.
//   * Traffic is O(boundary), not O(slab): 2 messages of radius*nx cells
//     per interior rank per sweep, counted in CommStats.views (halo_bytes,
//     ghost_cells, halo_messages) with the interior-compute window that hid
//     the transfer in halo_overlap_seconds.
//
// Tags live in the user band (below net::kJobUserTagLimit), so halo jobs
// compose with the service layer's tag fold; sweeps alternate tag parity so
// a rank running ahead can never match round k+1's band to round k's recv.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <utility>

#include "array/array.hpp"
#include "net/comm.hpp"
#include "serial/bytes.hpp"
#include "support/macros.hpp"

namespace triolet::dist {

/// Base tag of the halo band (user tag space; +0 / +1 alternate by sweep).
inline constexpr int kTagHaloBase = 110;

/// One rank's slab of a row-decomposed 2D grid: owned global rows [y0, y1),
/// plus `radius` ghost rows past each edge that has a neighbor.
template <typename T>
struct HaloSlab {
  static_assert(std::is_trivially_copyable_v<T>,
                "halo bands ship as raw bytes");

  Array2<T> grid;      // global rows [y0 - (prev?radius:0), y1 + (next?radius:0))
  index_t y0 = 0;      // first owned row (global)
  index_t y1 = 0;      // one past the last owned row
  index_t radius = 1;  // stencil radius in rows
  int prev = -1;       // rank owning the rows below y0 (-1: physical edge)
  int next = -1;       // rank owning the rows at/after y1 (-1: physical edge)

  index_t rows() const { return y1 - y0; }
  index_t cols() const { return grid.cols(); }
};

/// Even row partition of an ny x nx grid over `size` ranks, ghost rows
/// allocated on interior edges. Every rank must own at least `radius` rows
/// (its boundary band is what the neighbor's ghosts are filled from).
template <typename T>
HaloSlab<T> make_halo_slab(index_t ny, index_t nx, index_t radius, int rank,
                           int size, T fill = T{}) {
  TRIOLET_CHECK(ny > 0 && nx > 0 && radius > 0 && size > 0, "bad slab shape");
  const index_t y0 = ny * rank / size;
  const index_t y1 = ny * (rank + 1) / size;
  const int prev = rank > 0 ? rank - 1 : -1;
  const int next = rank + 1 < size ? rank + 1 : -1;
  TRIOLET_CHECK(y1 - y0 >= radius,
                "halo slab owns fewer rows than the stencil radius");
  const index_t glo = prev >= 0 ? radius : 0;
  const index_t ghi = next >= 0 ? radius : 0;
  const index_t rows = (y1 + ghi) - (y0 - glo);
  return HaloSlab<T>{
      Array2<T>(y0 - glo, rows, nx,
                std::vector<T>(static_cast<std::size_t>(rows * nx), fill)),
      y0, y1, radius, prev, next};
}

/// One split-phase neighbor exchange over a slab. Constructing posts the
/// receives and sends the boundary bands zero-copy; finish() lands the
/// ghost bands into the grid and settles the counters. The slab must stay
/// alive until finish() returns.
template <typename T>
class HaloExchange {
 public:
  HaloExchange(net::Comm& comm, HaloSlab<T>& slab, int tag = kTagHaloBase)
      : comm_(&comm), slab_(&slab), tag_(tag) {
    auto& g = slab.grid;
    // Post receives first so an eager neighbor's band always finds a match.
    if (slab.prev >= 0) rv_prev_ = comm.irecv(slab.prev, tag);
    if (slab.next >= 0) rv_next_ = comm.irecv(slab.next, tag);
    if (slab.prev >= 0) send_band(slab.prev, g, slab.y0, slab.radius);
    if (slab.next >= 0) {
      send_band(slab.next, g, slab.y1 - slab.radius, slab.radius);
    }
    comm.view_stats().halo_exchanges += 1;
    begin_ = std::chrono::steady_clock::now();
  }

  HaloExchange(const HaloExchange&) = delete;
  HaloExchange& operator=(const HaloExchange&) = delete;
  ~HaloExchange() { finish(); }

  /// Waits the neighbor bands, copies them into the ghost rows, and charges
  /// the compute window since construction as overlap. Idempotent.
  void finish() {
    if (finished_) return;
    finished_ = true;
    const bool pending = slab_->prev >= 0 || slab_->next >= 0;
    if (pending) {
      const auto mid = std::chrono::steady_clock::now();
      comm_->view_stats().halo_overlap_seconds +=
          std::chrono::duration<double>(mid - begin_).count();
    }
    if (slab_->prev >= 0) {
      recv_band(rv_prev_, slab_->y0 - slab_->radius);
    }
    if (slab_->next >= 0) {
      recv_band(rv_next_, slab_->y1);
    }
  }

 private:
  void send_band(int dst, const Array2<T>& g, index_t y_first, index_t rows) {
    const index_t cols = g.cols();
    auto w = serial::ByteWriter::segmented();
    w.write_pod<std::int64_t>(y_first);
    w.write_pod<std::int64_t>(rows);
    w.write_pod<std::int64_t>(cols);
    const std::size_t nbytes =
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols) *
        sizeof(T);
    w.write_borrowable(g.row(y_first).data(), nbytes);
    auto& vs = comm_->view_stats();
    vs.halo_messages += 1;
    vs.halo_bytes += static_cast<std::int64_t>(w.size());
    comm_->send_segments(dst, tag_, w.take_segments());
  }

  void recv_band(net::PendingRecv& rv, index_t y_first) {
    net::Message& m = rv.wait();
    serial::ByteReader r(m.payload);
    const auto yf = r.read_pod<std::int64_t>();
    const auto rows = r.read_pod<std::int64_t>();
    const auto cols = r.read_pod<std::int64_t>();
    TRIOLET_CHECK(yf == y_first && rows == slab_->radius &&
                      cols == slab_->grid.cols(),
                  "halo band shape mismatch");
    const std::size_t nbytes =
        static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols) *
        sizeof(T);
    auto src = r.borrow(nbytes);
    std::memcpy(slab_->grid.row(y_first).data(), src.data(), nbytes);
    comm_->view_stats().ghost_cells += rows * cols;
  }

  net::Comm* comm_;
  HaloSlab<T>* slab_;
  int tag_;
  net::PendingRecv rv_prev_, rv_next_;
  std::chrono::steady_clock::time_point begin_{};
  bool finished_ = false;
};

/// One overlapped Jacobi-style sweep: exchange cur's halo while computing
/// the interior rows (which need no ghosts), then land the ghosts and
/// compute the boundary rows. `stencil(grid, y, x)` reads cur.grid —
/// clamping at physical edges is the stencil's business — and its result is
/// written to next.grid(y, x). `sweep_index` alternates the tag parity.
template <typename T, typename F>
void halo_sweep(net::Comm& comm, const HaloSlab<T>& cur, HaloSlab<T>& next,
                F&& stencil, std::int64_t sweep_index = 0) {
  TRIOLET_CHECK(cur.y0 == next.y0 && cur.y1 == next.y1 &&
                    cur.radius == next.radius,
                "halo_sweep slabs must be partitioned identically");
  // The exchange mutates only cur's *ghost* rows; the owned rows stay
  // read-only all sweep.
  auto& xcur = const_cast<HaloSlab<T>&>(cur);
  HaloExchange<T> hx(comm, xcur,
                     kTagHaloBase + static_cast<int>(sweep_index & 1));
  const index_t ilo = cur.y0 + (cur.prev >= 0 ? cur.radius : 0);
  const index_t ihi = cur.y1 - (cur.next >= 0 ? cur.radius : 0);
  for (index_t y = ilo; y < ihi; ++y) {
    for (index_t x = 0; x < cur.cols(); ++x) {
      next.grid(y, x) = stencil(cur.grid, y, x);
    }
  }
  hx.finish();
  for (index_t y = cur.y0; y < ilo; ++y) {
    for (index_t x = 0; x < cur.cols(); ++x) {
      next.grid(y, x) = stencil(cur.grid, y, x);
    }
  }
  for (index_t y = ihi; y < cur.y1; ++y) {
    for (index_t x = 0; x < cur.cols(); ++x) {
      next.grid(y, x) = stencil(cur.grid, y, x);
    }
  }
}

}  // namespace triolet::dist
