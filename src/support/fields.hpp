#pragma once

// Field lists of aggregates, declared once per type.
//
//   TRIOLET_SERIALIZE_FIELDS(Type, f...)  the field visitor the serializer
//                                         (serial/serialize.hpp) walks
//   TRIOLET_STATS_FIELDS(Type, f...)      the same visitor for a counter
//                                         struct, plus field-by-field +=,
//                                         -=, + and - derived from it
//
// The visitor binds the fields with a structured binding, so a list whose
// length differs from the struct's does not compile. Invoke either macro at
// namespace scope of the type (ADL finds the visitor and the operators), and
// a nested stats type's macro before the enclosing type's.

#include <array>
#include <cstddef>

#define TRIOLET_SERIALIZE_FIELDS(Type, ...)     \
  template <typename F>                         \
  void triolet_visit_fields(Type& obj, F&& f) { \
    auto& [__VA_ARGS__] = obj;                  \
    f(__VA_ARGS__);                             \
  }

namespace triolet::support {

/// op(x, y) on one stats field; arrays of fields apply it element-wise.
template <typename T, typename Op>
void zip_field(T& x, const T& y, Op op) {
  op(x, y);
}

template <typename T, std::size_t N, typename Op>
void zip_field(std::array<T, N>& x, const std::array<T, N>& y, Op op) {
  for (std::size_t i = 0; i < N; ++i) zip_field(x[i], y[i], op);
}

/// op(a.f, b.f) for every field f of `a` and `b`, in declaration order.
template <typename T, typename Op>
T& zip_fields(T& a, const T& b, Op op) {
  triolet_visit_fields(a, [&](auto&... xs) {
    triolet_visit_fields(const_cast<T&>(b), [&](auto&... ys) {
      (zip_field(xs, ys, op), ...);
    });
  });
  return a;
}

}  // namespace triolet::support

#define TRIOLET_STATS_FIELDS(Type, ...)                                   \
  TRIOLET_SERIALIZE_FIELDS(Type, __VA_ARGS__)                             \
  inline Type& operator+=(Type& a, const Type& b) {                       \
    return ::triolet::support::zip_fields(                                \
        a, b, [](auto& x, const auto& y) { x += y; });                    \
  }                                                                       \
  inline Type& operator-=(Type& a, const Type& b) {                       \
    return ::triolet::support::zip_fields(                                \
        a, b, [](auto& x, const auto& y) { x -= y; });                    \
  }                                                                       \
  inline Type operator+(Type a, const Type& b) { return a += b; }        \
  inline Type operator-(Type a, const Type& b) { return a -= b; }
