#pragma once

// Index-space domains (paper §3.3, class Domain).
//
// A domain characterizes an iteration space: `Seq` is a one-dimensional
// index range, `Dim2`/`Dim3` are dense multidimensional boxes. Domains know
// their index type, iterate themselves in a canonical (row-major) order, and
// split into contiguous blocks — the primitive behind both node-level work
// distribution and the 2D block decomposition used by sgemm.
//
// Domains carry absolute bounds rather than sizes, so a chunk of a domain is
// itself a domain whose indices keep their global meaning. Together with the
// global base offsets on arrays (array/array.hpp), this is what lets a
// sliced task run unmodified on a remote node.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "serial/serialize.hpp"
#include "support/macros.hpp"

namespace triolet::core {

using index_t = std::int64_t;

/// Two-dimensional index.
struct Index2 {
  index_t y = 0;
  index_t x = 0;
  bool operator==(const Index2&) const = default;
};

/// Three-dimensional index.
struct Index3 {
  index_t z = 0;
  index_t y = 0;
  index_t x = 0;
  bool operator==(const Index3&) const = default;
};

/// One-dimensional domain: indices lo <= i < hi.
struct Seq {
  index_t lo = 0;
  index_t hi = 0;

  using Index = index_t;

  index_t size() const { return hi > lo ? hi - lo : 0; }
  bool contains(index_t i) const { return i >= lo && i < hi; }

  /// Position of `i` in iteration order.
  index_t ordinal(index_t i) const { return i - lo; }

  template <typename F>
  void for_each(F&& f) const {
    for (index_t i = lo; i < hi; ++i) f(i);
  }

  bool operator==(const Seq&) const = default;
};

/// Dense 2D box: y0 <= y < y1 (rows), x0 <= x < x1 (columns).
struct Dim2 {
  index_t y0 = 0, y1 = 0;
  index_t x0 = 0, x1 = 0;

  using Index = Index2;

  index_t rows() const { return y1 > y0 ? y1 - y0 : 0; }
  index_t cols() const { return x1 > x0 ? x1 - x0 : 0; }
  index_t size() const { return rows() * cols(); }
  bool contains(Index2 i) const {
    return i.y >= y0 && i.y < y1 && i.x >= x0 && i.x < x1;
  }

  index_t ordinal(Index2 i) const { return (i.y - y0) * cols() + (i.x - x0); }

  template <typename F>
  void for_each(F&& f) const {
    for (index_t y = y0; y < y1; ++y) {
      for (index_t x = x0; x < x1; ++x) f(Index2{y, x});
    }
  }

  bool operator==(const Dim2&) const = default;
};

/// Dense 3D box (z-major iteration).
struct Dim3 {
  index_t z0 = 0, z1 = 0;
  index_t y0 = 0, y1 = 0;
  index_t x0 = 0, x1 = 0;

  using Index = Index3;

  index_t size() const {
    index_t nz = z1 > z0 ? z1 - z0 : 0;
    index_t ny = y1 > y0 ? y1 - y0 : 0;
    index_t nx = x1 > x0 ? x1 - x0 : 0;
    return nz * ny * nx;
  }
  bool contains(Index3 i) const {
    return i.z >= z0 && i.z < z1 && i.y >= y0 && i.y < y1 && i.x >= x0 &&
           i.x < x1;
  }

  index_t ordinal(Index3 i) const {
    return ((i.z - z0) * (y1 - y0) + (i.y - y0)) * (x1 - x0) + (i.x - x0);
  }

  template <typename F>
  void for_each(F&& f) const {
    for (index_t z = z0; z < z1; ++z) {
      for (index_t y = y0; y < y1; ++y) {
        for (index_t x = x0; x < x1; ++x) f(Index3{z, y, x});
      }
    }
  }

  bool operator==(const Dim3&) const = default;
};

/// Segmented (ragged) 1D domain: iterates *segments* of a CSR-style source.
/// The segments are grouped into contiguous *outer units* by `cuts`, a
/// shared vector of absolute segment boundaries: outer unit u covers
/// segments [cuts[u], cuts[u+1]). The grouping is value-balanced at
/// construction (see segment_cuts), so the scheduler's outer-axis atoms
/// split on value count, not segment count — a power-law row distribution
/// no longer hands one rank a thousand times the work of another just
/// because both got "the same number of rows".
///
/// Like Seq, a slice of a SegSeq keeps global meaning: the cuts vector is
/// shared (never rewritten) and `u0`/`u1` select a window of units, so
/// cuts values are absolute segment indices everywhere. `weights` is an
/// optional parallel per-unit cost hint (value counts) consumed by
/// outer_cost_cv / auto_grain_for; it rides along slices untouched.
struct SegSeq {
  index_t u0 = 0;  ///< first outer unit
  index_t u1 = 0;  ///< one past the last outer unit
  std::shared_ptr<const std::vector<index_t>> cuts;
  std::shared_ptr<const std::vector<index_t>> weights;  // per-unit, optional

  using Index = index_t;  // global segment index

  index_t units() const { return u1 > u0 ? u1 - u0 : 0; }
  index_t seg_lo() const {
    return cuts ? (*cuts)[static_cast<std::size_t>(u0)] : 0;
  }
  index_t seg_hi() const {
    return cuts ? (*cuts)[static_cast<std::size_t>(std::max(u0, u1))] : 0;
  }

  index_t size() const { return seg_hi() - seg_lo(); }
  bool contains(index_t s) const { return s >= seg_lo() && s < seg_hi(); }
  index_t ordinal(index_t s) const { return s - seg_lo(); }

  template <typename F>
  void for_each(F&& f) const {
    for (index_t s = seg_lo(); s < seg_hi(); ++s) f(s);
  }

  bool operator==(const SegSeq& o) const {
    if (units() != o.units()) return false;
    for (index_t u = 0; u <= units(); ++u) {
      const index_t a = cuts ? (*cuts)[static_cast<std::size_t>(u0 + u)] : 0;
      const index_t b =
          o.cuts ? (*o.cuts)[static_cast<std::size_t>(o.u0 + u)] : 0;
      if (a != b) return false;
    }
    return true;
  }
};

/// Builds the value-balanced outer-unit boundaries of a SegSeq over `nsegs`
/// segments whose CSR offsets are `offsets` (offsets.size() == nsegs + 1,
/// offsets[s] <= offsets[s+1]). Consecutive segments accumulate into one
/// unit until it holds at least `value_grain` values, then the unit closes.
/// Degenerate shapes stay valid by construction:
///   - empty segments (offsets[s] == offsets[s+1]) attach to the open unit,
///     so no unit is ever segment-empty while the domain is non-empty;
///   - a single segment larger than the grain closes its own (oversized)
///     unit — segments are atoms of correctness and never split;
///   - nsegs == 0 yields the single boundary {0} (a valid empty domain).
/// The result is a pure function of (offsets, value_grain) — never of rank
/// or thread counts — so every rank derives the identical decomposition.
inline std::vector<index_t> segment_cuts(std::span<const index_t> offsets,
                                         index_t value_grain) {
  TRIOLET_CHECK(!offsets.empty(), "CSR offsets need at least one entry");
  TRIOLET_CHECK(value_grain >= 1, "value grain must be positive");
  const index_t nsegs = static_cast<index_t>(offsets.size()) - 1;
  std::vector<index_t> cuts;
  cuts.push_back(0);
  index_t acc = 0;
  for (index_t s = 0; s < nsegs; ++s) {
    acc += offsets[static_cast<std::size_t>(s + 1)] -
           offsets[static_cast<std::size_t>(s)];
    if (acc >= value_grain) {
      cuts.push_back(s + 1);
      acc = 0;
    }
  }
  if (cuts.back() != nsegs) cuts.push_back(nsegs);
  return cuts;
}

/// Per-unit value counts for segment_cuts output (the SegSeq::weights cost
/// hint): weight of unit u = offsets[cuts[u+1]] - offsets[cuts[u]].
inline std::vector<index_t> segment_weights(std::span<const index_t> offsets,
                                            const std::vector<index_t>& cuts) {
  std::vector<index_t> w;
  if (cuts.size() < 2) return w;
  w.reserve(cuts.size() - 1);
  for (std::size_t u = 0; u + 1 < cuts.size(); ++u) {
    w.push_back(offsets[static_cast<std::size_t>(cuts[u + 1])] -
                offsets[static_cast<std::size_t>(cuts[u])]);
  }
  return w;
}

template <typename D>
using IndexOf = typename D::Index;

// -- intersection (used by zip: visit common points; paper §3.3) -------------

inline Seq intersect(Seq a, Seq b) {
  return Seq{std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
}

inline Dim2 intersect(Dim2 a, Dim2 b) {
  return Dim2{std::max(a.y0, b.y0), std::min(a.y1, b.y1),
              std::max(a.x0, b.x0), std::min(a.x1, b.x1)};
}

inline Dim3 intersect(Dim3 a, Dim3 b) {
  return Dim3{std::max(a.z0, b.z0), std::min(a.z1, b.z1),
              std::max(a.y0, b.y0), std::min(a.y1, b.y1),
              std::max(a.x0, b.x0), std::min(a.x1, b.x1)};
}

/// Zipping two segmented iterators requires the same unit decomposition —
/// value-balanced cuts are a pure function of the offsets, so two views of
/// one SegmentedDistArray (or arrays built with identical shape) agree.
/// The intersection keeps `a`'s cuts and narrows the unit window to the
/// units both sides cover.
inline SegSeq intersect(const SegSeq& a, const SegSeq& b) {
  if (a.cuts == b.cuts) {
    SegSeq out = a;
    out.u0 = std::max(a.u0, b.u0);
    out.u1 = std::max(out.u0, std::min(a.u1, b.u1));
    return out;
  }
  TRIOLET_CHECK(a == b,
                "zip of segmented domains needs identical segment grouping");
  return a;
}

// -- block splitting ----------------------------------------------------------

// -- ordinal-range traversal -----------------------------------------------------
//
// Parallel loops address work by *ordinal* (position in canonical order).
// Walking an ordinal range must not reconstruct multidimensional indices
// with a division and modulus per element — that is precisely the
// flattening overhead §3.3 warns about. These walkers pay one div/mod to
// enter the range, then iterate with nested loops and carries.

template <typename F>
void for_ordinal_range(Seq d, index_t a, index_t b, F&& f) {
  for (index_t i = d.lo + a; i < d.lo + b; ++i) f(i);
}

/// Ordinals of a SegSeq address *segments* (not outer units): intra-node
/// parallel loops and lazy splitting subdivide segment ranges freely, which
/// is what absorbs per-segment cost skew inside one granted atom.
template <typename F>
void for_ordinal_range(const SegSeq& d, index_t a, index_t b, F&& f) {
  const index_t lo = d.seg_lo();
  for (index_t s = lo + a; s < lo + b; ++s) f(s);
}

template <typename F>
void for_ordinal_range(Dim2 d, index_t a, index_t b, F&& f) {
  if (a >= b) return;
  const index_t cols = d.cols();
  index_t y = d.y0 + a / cols;
  index_t x = d.x0 + a % cols;
  for (index_t ord = a; ord < b;) {
    const index_t stop = std::min(b, ord + (d.x1 - x));
    for (; ord < stop; ++ord, ++x) f(Index2{y, x});
    if (x == d.x1) {
      x = d.x0;
      ++y;
    }
  }
}

template <typename F>
void for_ordinal_range(Dim3 d, index_t a, index_t b, F&& f) {
  if (a >= b) return;
  const index_t ny = d.y1 - d.y0, nx = d.x1 - d.x0;
  index_t z = d.z0 + a / (ny * nx);
  index_t rem = a % (ny * nx);
  index_t y = d.y0 + rem / nx;
  index_t x = d.x0 + rem % nx;
  for (index_t ord = a; ord < b;) {
    const index_t stop = std::min(b, ord + (d.x1 - x));
    for (; ord < stop; ++ord, ++x) f(Index3{z, y, x});
    if (x == d.x1) {
      x = d.x0;
      if (++y == d.y1) {
        y = d.y0;
        ++z;
      }
    }
  }
}

/// Splits [lo, hi) into `k` contiguous nearly-equal chunks (some possibly
/// empty when k > size).
inline std::vector<Seq> split_blocks(Seq d, int k) {
  TRIOLET_CHECK(k >= 1, "need at least one chunk");
  std::vector<Seq> out;
  out.reserve(static_cast<std::size_t>(k));
  const index_t n = d.size();
  for (int c = 0; c < k; ++c) {
    index_t a = d.lo + n * c / k;
    index_t b = d.lo + n * (c + 1) / k;
    out.push_back(Seq{a, b});
  }
  return out;
}

/// The most unit weights split_weighted reads, whatever the extent.
inline constexpr index_t kWeightStrata = 1024;

/// Splits [lo, hi) into `k` contiguous chunks of nearly equal estimated
/// weight, where `unit_weight(i)` >= 0 is the work of index i (a nest's
/// inner element count). The n indices form K = min(n, kWeightStrata)
/// strata [n·j/K, n·(j+1)/K); a stratum weighs unit_weight at its midpoint
/// times its length, so the cut reads at most kWeightStrata weights. Each
/// chunk boundary is the stratum boundary whose prefix weight lies nearest
/// a k-th of the total, which makes the cut exact when n <= kWeightStrata.
/// A zero total (every unit empty) gives split_blocks(d, k).
template <typename W>
std::vector<Seq> split_weighted(Seq d, int k, W&& unit_weight) {
  TRIOLET_CHECK(k >= 1, "need at least one chunk");
  const index_t n = d.size();
  const index_t strata = std::min(n, kWeightStrata);
  auto start = [&](index_t j) { return n * j / strata; };  // of stratum j
  std::vector<double> prefix{0.0};  // prefix[j]: weight of strata [0, j)
  for (index_t j = 0; j < strata; ++j) {
    const index_t a = start(j), len = start(j + 1) - a;
    prefix.push_back(prefix.back() +
                     static_cast<double>(unit_weight(d.lo + a + len / 2) * len));
  }
  const double total = prefix.back();
  if (total <= 0) return split_blocks(d, k);
  std::vector<Seq> out;
  std::size_t j = 0;  // prefix[j] <= target < prefix[j + 1], or the last
  index_t lo = d.lo;
  for (int c = 1; c < k; ++c) {
    const double target = total * c / k;
    while (j + 1 < prefix.size() && prefix[j + 1] <= target) ++j;
    const bool after = j + 1 < prefix.size() &&
                       prefix[j + 1] - target < target - prefix[j];
    const index_t hi = d.lo + start(static_cast<index_t>(j + after));
    out.push_back(Seq{lo, hi});
    lo = hi;
  }
  out.push_back(Seq{lo, d.hi});
  return out;
}

/// Splits a segmented domain into `k` contiguous chunks of nearly-equal
/// *outer-unit* count. Units are value-balanced (segment_cuts), so this is
/// an approximate value split that never cuts a segment. Degenerate ragged
/// shapes stay valid: with fewer units than chunks the trailing chunks are
/// empty but anchored (u0 == u1 at a real boundary), so slicing sources by
/// them is in-range and their atoms simply contribute no work.
inline std::vector<SegSeq> split_blocks(const SegSeq& d, int k) {
  TRIOLET_CHECK(k >= 1, "need at least one chunk");
  std::vector<SegSeq> out;
  out.reserve(static_cast<std::size_t>(k));
  const index_t n = d.units();
  for (int c = 0; c < k; ++c) {
    SegSeq chunk = d;
    chunk.u0 = d.u0 + n * c / k;
    chunk.u1 = d.u0 + n * (c + 1) / k;
    out.push_back(std::move(chunk));
  }
  return out;
}

/// Chooses a grid ry x rx with ry * rx == k, as close to the box's aspect
/// ratio as possible, and returns the k = ry*rx sub-blocks in row-major
/// order. This is the 2D block decomposition of sgemm (paper §2).
std::vector<Dim2> split_blocks(Dim2 d, int k);

/// Splits a 3D box into k sub-boxes: factorizes k into a (kz, ky, kx) grid
/// whose blocks are as close to cubic as possible.
std::vector<Dim3> split_blocks(Dim3 d, int k);

// -- outer-axis chunking ------------------------------------------------------
//
// The demand-driven scheduler (src/sched/) grants work as contiguous runs of
// *outer-axis units*: plain indices for Seq, whole rows for Dim2, whole z
// slabs for Dim3. Chunking along the outermost axis keeps every chunk a
// rectangular sub-domain, so grants slice and serialize exactly like the
// static node chunks of split_blocks.

/// Number of outermost-axis units in `d` (indices / rows / z slabs).
inline index_t outer_extent(Seq d) { return d.size(); }
inline index_t outer_extent(Dim2 d) { return d.rows(); }
inline index_t outer_extent(Dim3 d) { return d.z1 > d.z0 ? d.z1 - d.z0 : 0; }
/// Outer units of a SegSeq are its value-balanced segment groups, so grants
/// and atoms split on value mass while indices stay whole segments.
inline index_t outer_extent(const SegSeq& d) { return d.units(); }

/// Sub-domain covering outer units [u0, u1) of `d` (clamped to the extent;
/// u0 >= u1 yields an empty domain anchored at u0 so global indices stay
/// meaningful). All inner axes are kept whole.
inline Seq outer_slice(Seq d, index_t u0, index_t u1) {
  const index_t n = outer_extent(d);
  u0 = std::clamp<index_t>(u0, 0, n);
  u1 = std::clamp<index_t>(u1, u0, n);
  return Seq{d.lo + u0, d.lo + u1};
}

inline Dim2 outer_slice(Dim2 d, index_t u0, index_t u1) {
  const index_t n = outer_extent(d);
  u0 = std::clamp<index_t>(u0, 0, n);
  u1 = std::clamp<index_t>(u1, u0, n);
  return Dim2{d.y0 + u0, d.y0 + u1, d.x0, d.x1};
}

inline Dim3 outer_slice(Dim3 d, index_t u0, index_t u1) {
  const index_t n = outer_extent(d);
  u0 = std::clamp<index_t>(u0, 0, n);
  u1 = std::clamp<index_t>(u1, u0, n);
  return Dim3{d.z0 + u0, d.z0 + u1, d.y0, d.y1, d.x0, d.x1};
}

inline SegSeq outer_slice(const SegSeq& d, index_t u0, index_t u1) {
  const index_t n = outer_extent(d);
  u0 = std::clamp<index_t>(u0, 0, n);
  u1 = std::clamp<index_t>(u1, u0, n);
  SegSeq out = d;
  out.u0 = d.u0 + u0;
  out.u1 = d.u0 + u1;
  return out;
}

// -- per-unit cost-variance hint ---------------------------------------------
//
// Dense domains have uniform outer units, so their grain heuristic needs no
// shape information. Segmented domains carry per-unit value counts
// (SegSeq::weights); their coefficient of variation feeds auto_grain_for so
// skewed sources get finer atoms for demand policies to balance. cv == 0
// keeps the dense code path (and its results) bit-for-bit unchanged.

inline double outer_cost_cv(Seq) { return 0.0; }
inline double outer_cost_cv(Dim2) { return 0.0; }
inline double outer_cost_cv(Dim3) { return 0.0; }

/// Coefficient of variation (stddev / mean) of the per-unit weights of the
/// visible window; 0 when no weights travelled or the window is trivial.
inline double outer_cost_cv(const SegSeq& d) {
  if (!d.weights || d.units() < 2) return 0.0;
  const auto& w = *d.weights;
  if (static_cast<index_t>(w.size()) < d.u1) return 0.0;
  const index_t n = d.units();
  double sum = 0.0;
  for (index_t u = d.u0; u < d.u1; ++u) {
    sum += static_cast<double>(w[static_cast<std::size_t>(u)]);
  }
  const double mean = sum / static_cast<double>(n);
  if (mean <= 0.0) return 0.0;
  double var = 0.0;
  for (index_t u = d.u0; u < d.u1; ++u) {
    const double dl = static_cast<double>(w[static_cast<std::size_t>(u)]) - mean;
    var += dl * dl;
  }
  return std::sqrt(var / static_cast<double>(n)) / mean;
}

/// The one grain heuristic both levels of the two-level runtime share: the
/// chunk size that splits `extent` units across `parts` workers into ~8
/// chunks per worker — enough chunks that dynamic balancing has slack, few
/// enough that per-chunk overhead stays amortized. Clamped to [1, extent] so
/// tiny extents with many workers never yield a grain of 0 (infinite loop)
/// or larger than the range.
///
/// Callers: runtime::auto_grain (intra-node loops, parts = pool threads) and
/// sched::resolve_grain (inter-node atoms, parts = cluster ranks). Both used
/// to hand-roll extent/(8*parts) independently; keeping one definition here
/// is what guarantees the two levels cannot drift — and the demand scheduler
/// relies on the atom decomposition being a pure function of
/// (extent, parts, requested) for its kOrdered bitwise-identity invariant.
inline index_t auto_grain_for(index_t extent, int parts) {
  if (extent <= 1) return 1;
  const index_t target_chunks =
      std::max<index_t>(1, static_cast<index_t>(parts)) * 8;
  return std::clamp<index_t>(extent / target_chunks, 1, extent);
}

/// auto_grain_for with a per-unit cost-variance hint (outer_cost_cv).
/// Uniform units (cost_cv <= 0) take *exactly* the dense path above — same
/// integer arithmetic, same result — so dense callers are unchanged.
/// Skewed units aim for proportionally more chunks (up to 4x at cv >= 3),
/// giving demand policies slack to rebalance around jumbo units without
/// drowning uniform workloads in per-chunk overhead.
inline index_t auto_grain_for(index_t extent, int parts, double cost_cv) {
  if (cost_cv <= 0.0) return auto_grain_for(extent, parts);
  if (extent <= 1) return 1;
  const double target_chunks =
      static_cast<double>(std::max(1, parts)) * 8.0 *
      std::clamp(1.0 + cost_cv, 1.0, 4.0);
  const auto grain = static_cast<index_t>(static_cast<double>(extent) /
                                          target_chunks);
  return std::clamp<index_t>(grain, 1, extent);
}

/// Splits into chunks of at most `grain` indices each (1D).
inline std::vector<Seq> split_grain(Seq d, index_t grain) {
  TRIOLET_CHECK(grain >= 1, "grain must be positive");
  std::vector<Seq> out;
  for (index_t a = d.lo; a < d.hi; a += grain) {
    out.push_back(Seq{a, std::min(d.hi, a + grain)});
  }
  if (out.empty()) out.push_back(d);
  return out;
}

}  // namespace triolet::core

// -- serialization ------------------------------------------------------------
//
// Seq/Dim2/Dim3 are PODs and take the generic memcpy codec. SegSeq carries
// shared boundary vectors, so its codec ships only the visible window:
// the cuts subrange [u0 .. u1] (absolute segment indices, preserving global
// meaning) and the matching weights subrange when present. The reader
// rebases the unit window to [0, units) over the reconstructed vectors —
// relative outer_slice arithmetic is unaffected, which is what the
// scheduler's per-atom re-slicing on workers relies on.

namespace triolet::serial {

template <>
struct Codec<triolet::core::SegSeq> {
  using D = triolet::core::SegSeq;

  static void write(ByteWriter& w, const D& d) {
    const auto units = d.units();
    w.write_pod<std::int64_t>(units);
    for (std::int64_t u = 0; u <= units; ++u) {
      w.write_pod<std::int64_t>(
          d.cuts ? (*d.cuts)[static_cast<std::size_t>(d.u0 + u)] : 0);
    }
    const bool have_weights =
        d.weights && static_cast<std::int64_t>(d.weights->size()) >= d.u1;
    w.write_pod<std::uint8_t>(have_weights ? 1 : 0);
    if (have_weights) {
      for (std::int64_t u = 0; u < units; ++u) {
        w.write_pod<std::int64_t>(
            (*d.weights)[static_cast<std::size_t>(d.u0 + u)]);
      }
    }
  }

  static void read(ByteReader& r, D& d) {
    const auto units = r.read_pod<std::int64_t>();
    auto cuts = std::make_shared<std::vector<std::int64_t>>();
    cuts->reserve(static_cast<std::size_t>(units + 1));
    for (std::int64_t u = 0; u <= units; ++u) {
      cuts->push_back(r.read_pod<std::int64_t>());
    }
    std::shared_ptr<std::vector<std::int64_t>> weights;
    if (r.read_pod<std::uint8_t>() != 0) {
      weights = std::make_shared<std::vector<std::int64_t>>();
      weights->reserve(static_cast<std::size_t>(units));
      for (std::int64_t u = 0; u < units; ++u) {
        weights->push_back(r.read_pod<std::int64_t>());
      }
    }
    d = D{0, units, std::move(cuts), std::move(weights)};
  }
};

}  // namespace triolet::serial
