#pragma once

// Composable lazy views over resident distributed arrays.
//
// `dist::zip` / `dist::slice` / `dist::transform` build on the core
// iterator algebra (core::zip / Indexer::slice / core::map) but accept
// resident arrays directly, so a fused pipeline like
//
//     auto fused = dist::transform(dist::zip(a, dist::slice(b, lo, hi)), f);
//
// is just an iterator whose *source* is a tree of ResidentSource leaves.
// Nothing here materializes: scheduling or scattering the view slices the
// source tree leaf-by-leaf (zero-copy narrowing), and serializing a grant
// runs each leaf through the residency codec independently — a warm leaf
// ships as an 8-byte (id, version, range)-keyed checksum token instead of
// its payload. The bytes a fused view avoids this way are charged to
// CommStats.views.view_bytes_avoided (see net/comm.hpp ViewStats): grant
// encoding detects a multi-leaf source via core::resident_leaf_count and
// passes the view counters to the ResidencyEncodeScope.
//
// These are thin sugar by design — views compose with every existing
// skeleton (map_with contexts, scheduled reductions, service jobs) because
// they *are* core iterators; there is no separate view evaluator to keep
// consistent.

#include <utility>

#include "core/skeletons.hpp"
#include "dist/dist_array.hpp"
#include "dist/segmented.hpp"

namespace triolet::dist {

/// Lifts an argument into a view iterator: resident arrays become their
/// canonical iterators, iterators pass through unchanged.
template <typename T>
auto as_view(const DistArray<T>& a) {
  return from_resident(a);
}

template <typename T>
auto as_view(const SegmentedDistArray<T>& a) {
  return from_segmented(a);
}

template <typename It,
          typename = std::enable_if_t<core::is_iter_v<It>>>
It as_view(const It& it) {
  return it;
}

/// Lazy window [lo, hi) of a 1D resident array (global indices): narrows
/// the resident source zero-copy, no elements move.
template <typename T>
auto slice(const DistArray<T>& a, index_t lo, index_t hi) {
  return from_resident(a).slice(core::Seq{lo, hi});
}

/// Lazy window of an existing 1D view.
template <typename It,
          typename = std::enable_if_t<core::is_iter_v<It>>>
auto slice(const It& v, index_t lo, index_t hi) {
  return v.slice(core::Seq{lo, hi});
}

/// Element-wise pairing over the domain intersection. Arguments may be
/// resident arrays or views; the result's source keeps both leaves, so a
/// grant of the zip tokenizes (or ships) each side independently.
template <typename A, typename B>
auto zip(const A& a, const B& b) {
  return core::zip(as_view(a), as_view(b));
}

/// Lazy element-wise function application (core::map over the lifted view):
/// `g` rides in the extractor and runs where the elements are consumed.
template <typename A, typename G>
auto transform(const A& a, G g) {
  return core::map(as_view(a), std::move(g));
}

}  // namespace triolet::dist
