#pragma once

// The hybrid iterator (paper §3.2, §3.3): Triolet's Iter GADT rendered as
// four C++ class templates.
//
//   IdxFlatIter   indexer of values       — random access, parallelizable,
//                                           partitionable, any domain
//   StepFlatIter  stepper of values       — sequential, fuses irregularity
//   IdxNestIter   indexer of inner Iters  — random-access *outer* loop over
//                                           variable-length inner loops: the
//                                           shape filter/concat_map produce,
//                                           which keeps irregular loops
//                                           parallelizable
//   StepNestIter  stepper of inner Iters  — fully irregular nest
//
// Skeleton functions (core/skeletons.hpp) dispatch on the constructor via
// overloading — the exact structure of the paper's Figure 2, where each
// function is "defined by four equations, one for handling each
// constructor". The C++ optimizer statically resolves and inlines each
// equation, which is what fuses composed skeletons into single loop nests
// (the paper's constructor-aware inlining).
//
// Every iterator carries a ParHint set by par()/localpar() (§3.4).

#include <type_traits>

#include "core/hints.hpp"
#include "core/indexer.hpp"
#include "core/step.hpp"

namespace triolet::core {

enum class IterKind { kIdxFlat, kStepFlat, kIdxNest, kStepNest };

// -- the four constructors ------------------------------------------------------

template <typename D, typename Src, typename Ext>
struct IdxFlatIter {
  static constexpr IterKind kKind = IterKind::kIdxFlat;
  using Dom = D;
  using Ix = Indexer<D, Src, Ext>;
  using value_type = typename Ix::value_type;

  Ix ix{};
  ParHint hint = ParHint::kSeq;

  D domain() const { return ix.dom; }
  index_t size() const { return ix.size(); }
  value_type at(IndexOf<D> i) const { return ix.at(i); }
  value_type at_ordinal(index_t ord) const { return ix.at_ordinal(ord); }

  IdxFlatIter slice(D sub) const { return IdxFlatIter{ix.slice(sub), hint}; }
};

template <typename D, typename Src, typename Ext>
struct IdxNestIter {
  static constexpr IterKind kKind = IterKind::kIdxNest;
  using Dom = D;
  using Ix = Indexer<D, Src, Ext>;
  using InnerIter = typename Ix::value_type;
  using value_type = typename InnerIter::value_type;

  Ix ix{};
  ParHint hint = ParHint::kSeq;

  D domain() const { return ix.dom; }
  index_t size() const { return ix.size(); }  // number of *outer* tasks
  InnerIter inner_at(IndexOf<D> i) const { return ix.at(i); }
  InnerIter inner_at_ordinal(index_t ord) const { return ix.at_ordinal(ord); }

  IdxNestIter slice(D sub) const { return IdxNestIter{ix.slice(sub), hint}; }
};

template <typename SF>
struct StepFlatIter {
  static constexpr IterKind kKind = IterKind::kStepFlat;
  using value_type = StepValue<SF>;

  SF sf{};
  ParHint hint = ParHint::kSeq;
};

template <typename SF>
struct StepNestIter {
  static constexpr IterKind kKind = IterKind::kStepNest;
  using InnerIter = StepValue<SF>;
  using value_type = typename InnerIter::value_type;

  SF sf{};
  ParHint hint = ParHint::kSeq;
};

// -- deduction helpers ------------------------------------------------------------

template <typename D, typename Src, typename Ext>
auto idx_flat(D dom, Src src, Ext ext, ParHint hint = ParHint::kSeq) {
  return IdxFlatIter<D, Src, Ext>{make_indexer(dom, std::move(src), ext), hint};
}

template <typename D, typename Src, typename Ext>
auto idx_nest(D dom, Src src, Ext ext, ParHint hint = ParHint::kSeq) {
  return IdxNestIter<D, Src, Ext>{make_indexer(dom, std::move(src), ext), hint};
}

template <typename SF>
auto step_flat(SF sf, ParHint hint = ParHint::kSeq) {
  return StepFlatIter<SF>{std::move(sf), hint};
}

template <typename SF>
auto step_nest(SF sf, ParHint hint = ParHint::kSeq) {
  return StepNestIter<SF>{std::move(sf), hint};
}

// -- traits -----------------------------------------------------------------------

template <typename T, typename = void>
struct is_iter : std::false_type {};
template <typename T>
struct is_iter<T, std::void_t<decltype(T::kKind)>> : std::true_type {};
template <typename T>
inline constexpr bool is_iter_v = is_iter<std::remove_cvref_t<T>>::value;

template <typename It>
inline constexpr bool is_indexed_outer_v =
    It::kKind == IterKind::kIdxFlat || It::kKind == IterKind::kIdxNest;

template <typename It>
inline constexpr bool is_nested_v =
    It::kKind == IterKind::kIdxNest || It::kKind == IterKind::kStepNest;

/// True for an indexer over a Seq domain whose inner iterators report their
/// length: an indexer inner has size() (its element count, or for a nested
/// indexer its outer count), a stepper inner does not — filter on an
/// indexer yields 0-or-1 steppers. Static node blocks of such a nest are
/// cut by inner size (core::split_weighted) instead of by index count.
template <typename It>
struct is_sized_nest : std::false_type {};
template <typename D, typename Src, typename Ext>
struct is_sized_nest<IdxNestIter<D, Src, Ext>>
    : std::bool_constant<
          std::is_same_v<D, Seq> &&
          requires(const typename IdxNestIter<D, Src, Ext>::InnerIter& in) {
            in.size();
          }> {};
template <typename It>
inline constexpr bool is_sized_nest_v =
    is_sized_nest<std::remove_cvref_t<It>>::value;

/// True when the iterator's source graph contains a resident source (see
/// source_uses_residency): senders switch to the cache-aware scatter path
/// only for these, so non-resident iterators compile to exactly the old
/// send code. Step-function iterators have no Indexer and are never
/// resident.
template <typename It, typename = void>
struct iter_uses_residency : std::false_type {};
template <typename It>
struct iter_uses_residency<It, std::void_t<typename It::Ix::Source>>
    : source_uses_residency<typename It::Ix::Source> {};
template <typename It>
inline constexpr bool iter_uses_residency_v =
    iter_uses_residency<std::remove_cvref_t<It>>::value;

/// True when the iterator is a *fused view*: its source graph composes two
/// or more resident leaves (zip-of-resident, map over zip, segmented
/// offsets+values, ...). Senders charge the token substitutions of such
/// payloads to net::ViewStats — the bytes a materialized intermediate
/// would have shipped.
template <typename It, typename = void>
struct iter_is_fused_view : std::false_type {};
template <typename It>
struct iter_is_fused_view<It, std::void_t<typename It::Ix::Source>>
    : std::bool_constant<(resident_leaf_count<typename It::Ix::Source>::value >=
                          2)> {};
template <typename It>
inline constexpr bool iter_is_fused_view_v =
    iter_is_fused_view<std::remove_cvref_t<It>>::value;

// -- parallelism hints (par / localpar, §3.4) -------------------------------------

template <typename It>
It with_hint(It it, ParHint h) {
  static_assert(is_iter_v<It>);
  it.hint = h;
  return it;
}

/// Requests distributed + threaded execution of the loop this iterator feeds.
template <typename It>
It par(It it) {
  return with_hint(std::move(it), ParHint::kDist);
}

/// Requests threaded execution on a single node (shared memory only).
template <typename It>
It localpar(It it) {
  return with_hint(std::move(it), ParHint::kLocal);
}

/// Forces sequential execution.
template <typename It>
It unpar(It it) {
  return with_hint(std::move(it), ParHint::kSeq);
}

// -- toStep: convert any iterator to a stepper factory (Figure 2) ------------------

/// Calls .at(i) on an owned copy of an indexer; the lookup function of the
/// idxToStep conversion.
template <typename Ix>
struct IxAtFn {
  Ix ix;
  auto operator()(IndexOf<typename Ix::Dom> i) const { return ix.at(i); }
};

struct ToStepFn;  // applies to_step to inner iterators (declared below)

template <typename D, typename Src, typename Ext>
auto to_step(const IdxFlatIter<D, Src, Ext>& it) {
  using Ix = typename IdxFlatIter<D, Src, Ext>::Ix;
  return FromIdxStepF<D, IxAtFn<Ix>>{it.ix.dom, IxAtFn<Ix>{it.ix}};
}

template <typename SF>
SF to_step(const StepFlatIter<SF>& it) {
  return it.sf;
}

template <typename D, typename Src, typename Ext>
auto to_step(const IdxNestIter<D, Src, Ext>& it);

template <typename SF>
auto to_step(const StepNestIter<SF>& it);

struct ToStepFn {
  template <typename InnerIt>
  auto operator()(const InnerIt& it) const {
    return to_step(it);
  }
};

template <typename D, typename Src, typename Ext>
auto to_step(const IdxNestIter<D, Src, Ext>& it) {
  using Ix = typename IdxNestIter<D, Src, Ext>::Ix;
  auto outer = FromIdxStepF<D, IxAtFn<Ix>>{it.ix.dom, IxAtFn<Ix>{it.ix}};
  return concat_map_step(std::move(outer), ToStepFn{});
}

template <typename SF>
auto to_step(const StepNestIter<SF>& it) {
  return concat_map_step(it.sf, ToStepFn{});
}

// -- sequential traversal -----------------------------------------------------------

/// Applies `f` to every element in canonical order (all four constructors).
template <typename D, typename Src, typename Ext, typename F>
void visit(const IdxFlatIter<D, Src, Ext>& it, F&& f) {
  it.ix.dom.for_each([&](IndexOf<D> i) { f(it.ix.at(i)); });
}

template <typename SF, typename F>
void visit(const StepFlatIter<SF>& it, F&& f) {
  auto s = it.sf.make();
  drain(s, f);
}

template <typename D, typename Src, typename Ext, typename F>
void visit(const IdxNestIter<D, Src, Ext>& it, F&& f) {
  it.ix.dom.for_each([&](IndexOf<D> i) { visit(it.ix.at(i), f); });
}

template <typename SF, typename F>
void visit(const StepNestIter<SF>& it, F&& f) {
  auto s = it.sf.make();
  drain(s, [&](const auto& inner) { visit(inner, f); });
}

/// Early-exit traversal: applies `f` (returning bool; false = stop) until
/// exhaustion or refusal. Returns false iff some element stopped the walk.
/// Sequential by nature — used by the short-circuiting consumers.
template <typename D, typename Src, typename Ext, typename F>
bool visit_while(const IdxFlatIter<D, Src, Ext>& it, F&& f) {
  const D d = it.ix.dom;
  for (index_t ord = 0; ord < d.size(); ++ord) {
    if (!f(it.ix.at_ordinal(ord))) return false;
  }
  return true;
}

template <typename SF, typename F>
bool visit_while(const StepFlatIter<SF>& it, F&& f) {
  auto s = it.sf.make();
  bool keep_going = true;
  while (keep_going &&
         s.next([&](auto&& v) { keep_going = f(std::forward<decltype(v)>(v)); })) {
  }
  return keep_going;
}

template <typename D, typename Src, typename Ext, typename F>
bool visit_while(const IdxNestIter<D, Src, Ext>& it, F&& f) {
  const D d = it.ix.dom;
  for (index_t ord = 0; ord < d.size(); ++ord) {
    if (!visit_while(it.ix.at_ordinal(ord), f)) return false;
  }
  return true;
}

template <typename SF, typename F>
bool visit_while(const StepNestIter<SF>& it, F&& f) {
  auto s = it.sf.make();
  bool keep_going = true;
  while (keep_going && s.next([&](const auto& inner) {
    keep_going = visit_while(inner, f);
  })) {
  }
  return keep_going;
}

/// Applies `f` to every element generated by outer-ordinal positions
/// [lo, hi). Only indexed-outer iterators support this — it is the unit of
/// work distribution: each parallel task visits a contiguous ordinal range
/// ("get each intermediate result generated from the nth input", §2).
template <typename D, typename Src, typename Ext, typename F>
void visit_ordinals(const IdxFlatIter<D, Src, Ext>& it, index_t lo, index_t hi,
                    F&& f) {
  // Nested-loop ordinal walk: no per-element index reconstruction (§3.3).
  for_ordinal_range(it.ix.dom, lo, hi,
                    [&](IndexOf<D> i) { f(it.ix.at(i)); });
}

template <typename D, typename Src, typename Ext, typename F>
void visit_ordinals(const IdxNestIter<D, Src, Ext>& it, index_t lo, index_t hi,
                    F&& f) {
  for_ordinal_range(it.ix.dom, lo, hi,
                    [&](IndexOf<D> i) { visit(it.ix.at(i), f); });
}

}  // namespace triolet::core

// -- serialization of distributable iterators ----------------------------------------

namespace triolet::serial {

template <typename D, typename Src, typename Ext>
struct use_custom_codec<triolet::core::IdxFlatIter<D, Src, Ext>>
    : std::true_type {};
template <typename D, typename Src, typename Ext>
struct use_custom_codec<triolet::core::IdxNestIter<D, Src, Ext>>
    : std::true_type {};

template <typename D, typename Src, typename Ext>
struct Codec<triolet::core::IdxFlatIter<D, Src, Ext>> {
  using It = triolet::core::IdxFlatIter<D, Src, Ext>;
  static void write(ByteWriter& w, const It& it) {
    serial::write(w, it.ix);
    w.write_pod(it.hint);
  }
  static void read(ByteReader& r, It& it) {
    serial::read(r, it.ix);
    it.hint = r.read_pod<triolet::core::ParHint>();
  }
};

template <typename D, typename Src, typename Ext>
struct Codec<triolet::core::IdxNestIter<D, Src, Ext>> {
  using It = triolet::core::IdxNestIter<D, Src, Ext>;
  static void write(ByteWriter& w, const It& it) {
    serial::write(w, it.ix);
    w.write_pod(it.hint);
  }
  static void read(ByteReader& r, It& it) {
    serial::read(r, it.ix);
    it.hint = r.read_pod<triolet::core::ParHint>();
  }
};

}  // namespace triolet::serial
