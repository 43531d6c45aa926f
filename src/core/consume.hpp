#pragma once

// Iterator consumers: reductions, histograms, and array builders.
//
// Consumers execute an iterator's tasks and collect results (paper §2).
// Each consumer inspects the iterator's parallelism hint:
//
//   kSeq            sequential loop nest (visit)
//   kLocal / kDist  threaded execution over the *outer* indexer via the
//                   work-stealing pool; per-thread partial results are
//                   combined at the end ("each thread computes its own
//                   private sum", §2; "sequentially builds one histogram per
//                   thread", §3.4)
//
// A kDist iterator consumed here (outside a cluster) uses all local threads;
// full two-level distributed execution is dist/skeletons.hpp, which slices
// the iterator across nodes and calls these consumers on each node's chunk.
// Iterators whose *outer* loop is a stepper cannot be parallelized (the
// paper's Figure 1: steppers are sequential) and always run sequentially.
//
// For parallel reductions the initial value must be an identity of the
// combining operation (it seeds every chunk).

#include <optional>
#include <vector>

#include "array/array.hpp"
#include "core/iter.hpp"
#include "runtime/parallel.hpp"
#include "support/timing.hpp"

namespace triolet::core {

namespace detail {

template <typename It>
constexpr bool parallelizable_v = is_indexed_outer_v<It>;

/// Adds every element of `it` into `out` through `bump(h, element)`. Under a
/// parallel hint each of the pool's threads (its workers plus the calling
/// thread, which runs chunks of parallel_for too) fills a private copy of
/// `out`, and the copies are summed into it afterwards.
template <typename It, typename T, typename Bump>
void accumulate_histogram(Array1<T>& out, const It& it, const Bump& bump) {
  if constexpr (parallelizable_v<It>) {
    if (it.hint != ParHint::kSeq) {
      auto& pool = runtime::current_pool();
      runtime::PerThread<Array1<T>> priv(pool, out);
      runtime::parallel_for(pool, 0, it.size(), 0, [&](index_t a, index_t b) {
        auto& h = priv.local();
        visit_ordinals(it, a, b, [&](const auto& v) { bump(h, v); });
      });
      for (const auto& h : priv.slots()) {
        for (index_t i = out.lo(); i < out.hi(); ++i) out[i] += h[i];
      }
      return;
    }
  }
  visit(it, [&](const auto& v) { bump(out, v); });
}

}  // namespace detail

// -- reductions -----------------------------------------------------------------

/// Folds all elements with `op` starting from `init`. For parallel hints,
/// `init` must be an identity of `op`; partials combine in ascending chunk
/// order (deterministic for a fixed grain).
template <typename It, typename T, typename Op>
T reduce(const It& it, T init, Op op) {
  static_assert(is_iter_v<It>);
  if constexpr (detail::parallelizable_v<It>) {
    if (it.hint != ParHint::kSeq) {
      auto& pool = runtime::current_pool();
      return runtime::parallel_reduce(
          pool, 0, it.size(), 0, init,
          [&](index_t a, index_t b, T acc) {
            visit_ordinals(it, a, b,
                           [&](auto&& v) { acc = op(std::move(acc), v); });
            return acc;
          },
          [&](T x, T y) { return op(std::move(x), std::move(y)); });
    }
  }
  T acc = std::move(init);
  visit(it, [&](auto&& v) { acc = op(std::move(acc), v); });
  return acc;
}

/// Sum of all elements (value-initialized zero as identity).
template <typename It>
auto sum(const It& it) {
  using T = typename It::value_type;
  return reduce(it, T{}, [](T a, const T& b) { return a + b; });
}

/// Generalized fold whose accumulator type differs from the element type:
/// `fold(acc, v)` absorbs one element, `combine(x, y)` merges two partial
/// accumulators (`init` must be an identity of `combine`). Parallel hints
/// use the chunked pool reduction; partials combine in ascending chunk
/// order, so the result is deterministic for a fixed grain.
template <typename It, typename T, typename Fold, typename Combine>
T fold_reduce(const It& it, T init, Fold fold, Combine combine) {
  static_assert(is_iter_v<It>);
  if constexpr (detail::parallelizable_v<It>) {
    if (it.hint != ParHint::kSeq) {
      auto& pool = runtime::current_pool();
      return runtime::parallel_reduce(
          pool, 0, it.size(), 0, init,
          [&](index_t a, index_t b, T acc) {
            visit_ordinals(it, a, b, [&](auto&& v) {
              acc = fold(std::move(acc), v);
            });
            return acc;
          },
          [&](T x, T y) { return combine(std::move(x), std::move(y)); });
    }
  }
  T acc = std::move(init);
  visit(it, [&](auto&& v) { acc = fold(std::move(acc), v); });
  return acc;
}

/// Smallest element as an optional (empty iterator -> nullopt). The
/// optional doubles as the identity, which lets parallel chunks and
/// distributed nodes with empty slices participate in the reduction.
template <typename It>
auto minimum_partial(const It& it) {
  using T = typename It::value_type;
  return fold_reduce(
      it, std::optional<T>{},
      [](std::optional<T> acc, const T& v) {
        if (!acc || v < *acc) acc = v;
        return acc;
      },
      [](std::optional<T> a, std::optional<T> b) {
        if (!a) return b;
        if (!b) return a;
        return *b < *a ? b : a;
      });
}

/// Largest element as an optional (empty iterator -> nullopt).
template <typename It>
auto maximum_partial(const It& it) {
  using T = typename It::value_type;
  return fold_reduce(
      it, std::optional<T>{},
      [](std::optional<T> acc, const T& v) {
        if (!acc || *acc < v) acc = v;
        return acc;
      },
      [](std::optional<T> a, std::optional<T> b) {
        if (!a) return b;
        if (!b) return a;
        return *a < *b ? b : a;
      });
}

/// (sum, count) pair for averaging; the zero pair is the identity.
template <typename It>
std::pair<double, index_t> average_partial(const It& it) {
  using P = std::pair<double, index_t>;
  return fold_reduce(
      it, P{0.0, 0},
      [](P acc, const auto& v) {
        acc.first += static_cast<double>(v);
        acc.second += 1;
        return acc;
      },
      [](P a, P b) { return P{a.first + b.first, a.second + b.second}; });
}

/// Number of elements (after any filtering / nesting).
template <typename It>
index_t count(const It& it) {
  return reduce(map(it, [](const auto&) { return index_t{1}; }), index_t{0},
                [](index_t a, index_t b) { return a + b; });
}

/// Smallest element (iterator must be non-empty). Parallel hints run the
/// threaded chunked reduction, like sum.
template <typename It>
auto minimum(const It& it) {
  auto best = minimum_partial(it);
  TRIOLET_CHECK(best.has_value(), "minimum of an empty iterator");
  return *best;
}

/// Largest element (iterator must be non-empty). Parallel hints run the
/// threaded chunked reduction, like sum.
template <typename It>
auto maximum(const It& it) {
  auto best = maximum_partial(it);
  TRIOLET_CHECK(best.has_value(), "maximum of an empty iterator");
  return *best;
}

/// Arithmetic mean of the elements as double (0.0 for an empty iterator).
/// Parallel hints run the threaded chunked reduction, like sum.
template <typename It>
double average(const It& it) {
  auto [acc, n] = average_partial(it);
  return n == 0 ? 0.0 : acc / static_cast<double>(n);
}

/// True iff some element satisfies `p`. Sequential with early exit.
template <typename It, typename P>
bool any_of(const It& it, P&& p) {
  return !visit_while(it, [&](const auto& v) { return !p(v); });
}

/// True iff every element satisfies `p`. Sequential with early exit.
template <typename It, typename P>
bool all_of(const It& it, P&& p) {
  return visit_while(it, [&](const auto& v) { return static_cast<bool>(p(v)); });
}

template <typename It, typename P>
bool none_of(const It& it, P&& p) {
  return !any_of(it, p);
}

/// First element satisfying `p`, if any. Sequential with early exit.
template <typename It, typename P>
auto find_first(const It& it, P&& p) {
  using T = typename It::value_type;
  std::optional<T> found;
  visit_while(it, [&](const T& v) {
    if (p(v)) {
      found = v;
      return false;
    }
    return true;
  });
  return found;
}

// -- for_each -------------------------------------------------------------------

/// Applies `f` to every element. Under a parallel hint, `f` runs
/// concurrently on distinct elements and must be thread-safe; Triolet's
/// discipline of "no parallel access to mutable data structures" (§3.1) is
/// the caller's obligation here.
template <typename It, typename F>
void for_each(const It& it, F&& f) {
  static_assert(is_iter_v<It>);
  if constexpr (detail::parallelizable_v<It>) {
    if (it.hint != ParHint::kSeq) {
      auto& pool = runtime::current_pool();
      runtime::parallel_for(pool, 0, it.size(), 0,
                            [&](index_t a, index_t b) {
                              visit_ordinals(it, a, b, f);
                            });
      return;
    }
  }
  visit(it, f);
}

// -- histograms -----------------------------------------------------------------

/// Integer histogram: elements are bucket indices in [0, nbins).
/// Threaded execution privatizes one histogram per pool thread, the caller
/// included, then merges.
template <typename It>
Array1<std::int64_t> histogram(index_t nbins, const It& it) {
  static_assert(is_iter_v<It>);
  Array1<std::int64_t> out(nbins, 0);
  detail::accumulate_histogram(
      out, it, [nbins](Array1<std::int64_t>& h, index_t bin) {
        TRIOLET_ASSERT(bin >= 0 && bin < nbins);
        h[bin] += 1;
      });
  return out;
}

/// Floating-point histogram (cutcp's core pattern): elements are
/// (cell, weight) pairs; weights accumulate into cells. Threaded execution
/// privatizes one grid per pool thread, the caller included. Floating-point
/// results may differ from the sequential order by rounding (accumulation
/// order within a thread depends on chunk assignment).
template <typename F, typename It>
Array1<F> float_histogram(index_t ncells, const It& it) {
  static_assert(is_iter_v<It>);
  Array1<F> out(ncells, F{0});
  detail::accumulate_histogram(
      out, it, [ncells](Array1<F>& h, const auto& cell_weight) {
        auto [cell, w] = cell_weight;
        TRIOLET_ASSERT(cell >= 0 && cell < ncells);
        h[cell] += static_cast<F>(w);
      });
  return out;
}

// -- materialization --------------------------------------------------------------

/// Collects all elements into a vector in canonical order (sequential; the
/// collector conversion of Figure 1).
template <typename It>
auto to_vector(const It& it) {
  std::vector<typename It::value_type> out;
  visit(it, [&](auto&& v) { out.push_back(std::forward<decltype(v)>(v)); });
  return out;
}

/// Materializes a flat 1D indexer into an Array1 whose indices coincide with
/// the iterator's domain. Parallel hints fill disjoint ranges in place.
template <typename D, typename Src, typename Ext>
auto build_array1(const IdxFlatIter<D, Src, Ext>& it) {
  static_assert(std::is_same_v<D, Seq>, "build_array1 needs a 1D domain");
  using V = typename IdxFlatIter<D, Src, Ext>::value_type;
  Seq dom = it.ix.dom;
  Array1<V> out(dom.lo, std::vector<V>(static_cast<std::size_t>(dom.size())));
  auto fill = [&](index_t a, index_t b) {
    index_t ord = a;
    for_ordinal_range(dom, a, b, [&](index_t i) {
      out[dom.lo + ord] = it.ix.at(i);
      ++ord;
    });
  };
  if (it.hint != ParHint::kSeq) {
    runtime::parallel_for(runtime::current_pool(), 0, dom.size(), 0,
                          fill);
  } else {
    fill(0, dom.size());
  }
  return out;
}

/// A materialized rectangular block of a 2D computation: the unit a node
/// returns when building a distributed 2D result (sgemm's output blocks).
template <typename T>
struct Block2 {
  Dim2 dom{};
  std::vector<T> data;  // row-major over dom

  const T& at(Index2 i) const {
    TRIOLET_ASSERT(dom.contains(i));
    return data[static_cast<std::size_t>(dom.ordinal(i))];
  }
};

/// Materializes a flat 2D indexer into a Block2 covering its domain.
template <typename D, typename Src, typename Ext>
auto build_block2(const IdxFlatIter<D, Src, Ext>& it) {
  static_assert(std::is_same_v<D, Dim2>, "build_block2 needs a 2D domain");
  using V = typename IdxFlatIter<D, Src, Ext>::value_type;
  Dim2 dom = it.ix.dom;
  Block2<V> out{dom, std::vector<V>(static_cast<std::size_t>(dom.size()))};
  auto fill = [&](index_t a, index_t b) {
    index_t ord = a;
    for_ordinal_range(dom, a, b, [&](Index2 i) {
      out.data[static_cast<std::size_t>(ord)] = it.ix.at(i);
      ++ord;
    });
  };
  if (it.hint != ParHint::kSeq) {
    runtime::parallel_for(runtime::current_pool(), 0, dom.size(), 0,
                          fill);
  } else {
    fill(0, dom.size());
  }
  return out;
}

/// Materializes a flat 3D indexer into an Array3 (domain must start at the
/// origin: the dense-volume case cutcp's grid uses).
template <typename D, typename Src, typename Ext>
auto build_array3(const IdxFlatIter<D, Src, Ext>& it) {
  static_assert(std::is_same_v<D, Dim3>, "build_array3 needs a 3D domain");
  using V = typename IdxFlatIter<D, Src, Ext>::value_type;
  Dim3 dom = it.ix.dom;
  TRIOLET_CHECK(dom.z0 == 0 && dom.y0 == 0 && dom.x0 == 0,
                "build_array3 needs an origin-anchored domain");
  Array3<V> out(dom.z1, dom.y1, dom.x1);
  auto fill = [&](index_t a, index_t b) {
    index_t ord = a;
    for_ordinal_range(dom, a, b, [&](Index3 i) {
      out.storage()[static_cast<std::size_t>(ord)] = it.ix.at(i);
      ++ord;
    });
  };
  if (it.hint != ParHint::kSeq) {
    runtime::parallel_for(runtime::current_pool(), 0, dom.size(), 0, fill);
  } else {
    fill(0, dom.size());
  }
  return out;
}

/// Materializes a flat 2D indexer into an Array2 (domain must start at
/// column 0; rows keep their global offsets).
template <typename D, typename Src, typename Ext>
auto build_array2(const IdxFlatIter<D, Src, Ext>& it) {
  static_assert(std::is_same_v<D, Dim2>, "build_array2 needs a 2D domain");
  using V = typename IdxFlatIter<D, Src, Ext>::value_type;
  Dim2 dom = it.ix.dom;
  TRIOLET_CHECK(dom.x0 == 0, "build_array2 needs a full-width domain");
  Block2<V> block = build_block2(it);
  return Array2<V>(dom.y0, dom.rows(), dom.cols(), std::move(block.data));
}

// -- streaming ------------------------------------------------------------------

/// Feeds work arriving from elsewhere (demand-scheduler grants, resident
/// slice chunks) into a thread pool as it lands, instead of executing each
/// piece inline on the receiving thread: the node computes on chunk k while
/// chunk k+1 is still in flight. The submitting thread stays free to keep
/// receiving; `drain()` joins everything before results are combined.
///
/// Submissions take the pool's boxed (heap) task path — one allocation per
/// chunk, amortized by the network latency the chunk just paid.
///
/// Not thread-safe: one receiving thread submits, many workers execute.
class StreamingConsumer {
 public:
  explicit StreamingConsumer(runtime::ThreadPool& pool) : pool_(pool) {}
  ~StreamingConsumer() { drain(); }

  StreamingConsumer(const StreamingConsumer&) = delete;
  StreamingConsumer& operator=(const StreamingConsumer&) = delete;

  /// Enqueues `fn` on the pool. `fn` (and anything it references) must stay
  /// valid until drain() returns; callables submitted concurrently must be
  /// safe to run concurrently.
  template <typename Fn>
  void submit(Fn fn) {
    submitted_ += 1;
    pool_.submit(group_, [this, fn = std::move(fn)]() mutable {
      Stopwatch sw;
      fn();
      busy_ns_.fetch_add(static_cast<std::int64_t>(sw.seconds() * 1e9),
                         std::memory_order_relaxed);
    });
  }

  /// Blocks until every submitted callable has finished (helping the pool).
  void drain() { pool_.wait(group_); }

  /// Runs one queued pool task on the calling thread if one is available —
  /// the receiving thread's backpressure valve when too much is in flight.
  bool help() { return pool_.try_run_one(); }

  /// Submitted callables not yet finished.
  std::int64_t pending() const { return group_.pending(); }

  /// Total callables submitted so far.
  std::int64_t submitted() const { return submitted_; }

  /// Summed wall time spent inside submitted callables across all workers
  /// (may exceed elapsed time: workers run concurrently).
  double busy_seconds() const {
    return static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

  runtime::ThreadPool& pool() { return pool_; }

 private:
  runtime::ThreadPool& pool_;
  runtime::TaskGroup group_;
  std::int64_t submitted_ = 0;
  std::atomic<std::int64_t> busy_ns_{0};
};

}  // namespace triolet::core

namespace triolet::serial {

template <typename T>
struct Codec<triolet::core::Block2<T>> {
  static void write(ByteWriter& w, const triolet::core::Block2<T>& b) {
    serial::write(w, b.dom);
    serial::write(w, b.data);
  }
  static void read(ByteReader& r, triolet::core::Block2<T>& b) {
    serial::read(r, b.dom);
    serial::read(r, b.data);
  }
};

}  // namespace triolet::serial
