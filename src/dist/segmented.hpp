#pragma once

// Segmented (ragged) resident distributed arrays — CSR-style offsets+values
// with segment-aware chunking.
//
// The dense DistArray assumes every outer index costs the same; sparse and
// ragged workloads (CSR matvec, adjacency lists, ragged batches) break that
// twice over: items are variable-length, and a power-law length
// distribution concentrates most of the work in a few segments. This header
// makes such sources first-class distributed data:
//
//   * `SegmentedDistArray<T>` owns two resident arrays — `offsets`
//     (nsegs + 1 CSR boundaries) and `values` (the concatenated payloads) —
//     so both halves inherit DistArray identity/versioning and their slices
//     tokenize independently through the residency protocol.
//   * Its iteration domain is a `core::SegSeq`: segments grouped into
//     *value-balanced* outer units (core::segment_cuts), so scheduler atoms
//     split on value count, not segment count. A jumbo segment becomes its
//     own oversized unit (segments never split — they are the correctness
//     atom); the residual skew from such units is exactly what the demand
//     policies rebalance, and the per-unit weights ride on the domain as
//     the cost-variance hint for auto_grain_for.
//   * `from_segmented(a)` yields an ordinary core:: iterator whose elements
//     are `Segment<T>` views (global segment index + contiguous value
//     span); every existing skeleton and the scheduled ones compose with it
//     unchanged. Slicing narrows both resident leaves zero-copy: a granted
//     atom ships (or tokenizes) only its own offsets window and value range.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/domains.hpp"
#include "dist/dist_array.hpp"
#include "serial/serialize.hpp"
#include "support/macros.hpp"

namespace triolet::dist {

/// One segment of a segmented source: its global index and a contiguous
/// view of its values (borrowed from the source; valid while the iterator
/// lives, like every extractor result).
template <typename T>
struct Segment {
  index_t index = 0;
  std::span<const T> values;

  index_t size() const { return static_cast<index_t>(values.size()); }
  const T& operator[](index_t k) const {
    return values[static_cast<std::size_t>(k)];
  }
  auto begin() const { return values.begin(); }
  auto end() const { return values.end(); }
};

/// Iterator source over a segmented resident array: two resident leaves.
/// `offsets` covers global segment boundaries [seg_lo, seg_hi] (one more
/// entry than segments), `values` covers [offsets[seg_lo], offsets[seg_hi]).
template <typename T>
struct SegmentedSource {
  ResidentSource<index_t> offsets;
  ResidentSource<T> values;

  Segment<T> segment(index_t s) const {
    const index_t b = offsets[s];
    const index_t e = offsets[s + 1];
    const T* first = values.data.get() + (b - values.base);
    return Segment<T>{s, std::span<const T>(first,
                                            static_cast<std::size_t>(e - b))};
  }

  bool operator==(const SegmentedSource& o) const {
    return offsets == o.offsets && values == o.values;
  }
};

/// Narrowing a segmented view slices both leaves zero-copy: the offsets
/// window of the sub-domain's segments and exactly the value range those
/// segments cover. Works for empty sub-domains anchored anywhere in the
/// parent window (u0 == u1 at a real cut boundary).
template <typename T>
SegmentedSource<T> slice_source(const SegmentedSource<T>& s,
                                const core::SegSeq& old,
                                const core::SegSeq& sub) {
  TRIOLET_CHECK(sub.seg_lo() >= old.seg_lo() && sub.seg_hi() <= old.seg_hi(),
                "segmented slice out of range");
  const index_t s0 = sub.seg_lo();
  const index_t s1 = sub.seg_hi();
  auto off = slice_source(s.offsets, core::Seq{}, core::Seq{s0, s1 + 1});
  const index_t v0 = s.offsets[s0];
  const index_t v1 = s.offsets[s1];
  auto val = slice_source(s.values, core::Seq{}, core::Seq{v0, v1});
  return {std::move(off), std::move(val)};
}

/// Extractor for segmented iterators (the ResidentExt analogue): yields the
/// whole segment as a value — consumers fold over `seg.values`.
struct SegmentExt {
  template <typename T>
  Segment<T> operator()(const SegmentedSource<T>& s, index_t seg) const {
    return s.segment(seg);
  }
};

/// Persistent, identity-carrying owner of a CSR (offsets, values) pair.
/// Move-only like its two DistArray members. The outer-unit decomposition
/// (value-balanced cuts + per-unit weights) is computed once at
/// construction as a pure function of (offsets, value_grain) — never of
/// rank or thread counts — so every rank and every policy derives the
/// identical atom decomposition (the kOrdered invariant).
template <typename T>
class SegmentedDistArray {
 public:
  /// Target number of outer units when `value_grain` is 0: enough units
  /// that eight-atoms-per-rank scheduling has slack at any realistic rank
  /// count, few enough that unit bookkeeping stays negligible.
  static constexpr index_t kDefaultUnitTarget = 1024;

  /// `offsets` is the CSR boundary vector (offsets[0] == 0, monotone,
  /// offsets[nsegs] == values.size()); `value_grain` is the target value
  /// count per outer unit (0 = values/kDefaultUnitTarget, floored at 1).
  SegmentedDistArray(std::vector<index_t> offsets, std::vector<T> values,
                     index_t value_grain = 0)
      : nsegs_(check(offsets, values)),
        value_grain_(value_grain > 0
                         ? value_grain
                         : std::max<index_t>(
                               1, static_cast<index_t>(values.size()) /
                                      kDefaultUnitTarget)),
        offsets_(Array1<index_t>::from(std::move(offsets))),
        values_(Array1<T>::from(std::move(values))) {
    auto cuts = std::make_shared<std::vector<index_t>>(
        core::segment_cuts(offsets_.array().span(), value_grain_));
    weights_ = std::make_shared<const std::vector<index_t>>(
        core::segment_weights(offsets_.array().span(), *cuts));
    cuts_ = std::move(cuts);
  }

  index_t segments() const { return nsegs_; }
  index_t value_count() const { return offsets_.array()[nsegs_]; }
  index_t value_grain() const { return value_grain_; }

  /// The value-balanced segmented iteration domain (outer units carry their
  /// value weights as the scheduler's cost-variance hint).
  core::SegSeq domain() const {
    return core::SegSeq{0, static_cast<index_t>(cuts_->size()) - 1, cuts_,
                        weights_};
  }

  /// The iterator source over both resident halves at current versions.
  SegmentedSource<T> source() const {
    return {offsets_.source(), values_.source()};
  }

  /// Stable autotuning key (see DistArray::tune_key): rounds over this
  /// array share one calibration.
  std::uint64_t tune_key() const { return values_.tune_key(); }

  /// Writable value access; bumps the values version so cached value
  /// slices are retired (the offsets — and the decomposition — are fixed:
  /// changing the shape means building a new SegmentedDistArray).
  Array1<T>& mutate_values() { return values_.mutate(); }

 private:
  static index_t check(const std::vector<index_t>& offsets,
                       const std::vector<T>& values) {
    TRIOLET_CHECK(!offsets.empty() && offsets.front() == 0,
                  "CSR offsets must start at 0");
    for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
      TRIOLET_CHECK(offsets[s] <= offsets[s + 1],
                    "CSR offsets must be monotone");
    }
    TRIOLET_CHECK(offsets.back() == static_cast<index_t>(values.size()),
                  "CSR offsets must end at the value count");
    return static_cast<index_t>(offsets.size()) - 1;
  }

  index_t nsegs_ = 0;
  index_t value_grain_ = 1;
  DistArray<index_t> offsets_;
  DistArray<T> values_;
  std::shared_ptr<const std::vector<index_t>> cuts_;
  std::shared_ptr<const std::vector<index_t>> weights_;
};

/// Iterator over a segmented resident array: elements are Segment<T> views,
/// the domain is the value-balanced SegSeq, and slices participate in the
/// residency protocol leaf-by-leaf.
template <typename T>
auto from_segmented(const SegmentedDistArray<T>& a) {
  return core::idx_flat(a.domain(), a.source(), SegmentExt{});
}

}  // namespace triolet::dist

namespace triolet::core {

// A segmented source is resident (both leaves are), and counts as a fused
// view: its offsets and values tokenize independently, so a warm segmented
// grant is tokens-only even before any zip/transform composition.
template <typename T>
struct source_uses_residency<triolet::dist::SegmentedSource<T>>
    : std::true_type {};
template <typename T>
struct resident_leaf_count<triolet::dist::SegmentedSource<T>>
    : std::integral_constant<int, 2> {};

}  // namespace triolet::core

namespace triolet::serial {

template <typename T>
struct use_custom_codec<triolet::dist::SegmentedSource<T>> : std::true_type {
};

/// Delegates to the two ResidentSource codecs: each leaf independently
/// becomes an inline zero-copy payload or an 8-byte checksum token under
/// the active residency scope.
template <typename T>
struct Codec<triolet::dist::SegmentedSource<T>> {
  using S = triolet::dist::SegmentedSource<T>;

  static void write(ByteWriter& w, const S& s) {
    serial::write(w, s.offsets);
    serial::write(w, s.values);
  }

  static void read(ByteReader& r, S& s) {
    serial::read(r, s.offsets);
    serial::read(r, s.values);
  }
};

}  // namespace triolet::serial
