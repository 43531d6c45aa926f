#pragma once

// Type-driven serialization, the C++ analogue of Triolet's compiler-generated
// serialization for algebraic data types (§3.4).
//
// Where Triolet's compiler derives serializers from type definitions, this
// library derives them from C++ type structure:
//   * trivially copyable types  -> memcpy of the object representation
//   * std::vector<T>/std::string -> length + elements, with a block-copy
//     fast path when T is trivially copyable (the paper notes the majority
//     of serialized data lives in pointer-free arrays)
//   * pair/tuple/array/optional -> element-wise
//   * user aggregates           -> TRIOLET_SERIALIZE_FIELDS(Type, ...) which
//     generates the visit function the compiler would have generated
//     (support/fields.hpp)
//
// Everything round-trips through ByteWriter/ByteReader so a value can be
// shipped over the net:: substrate as an opaque byte payload.

#include <array>
#include <map>
#include <unordered_map>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "serial/bytes.hpp"
#include "support/fields.hpp"

namespace triolet::serial {

template <typename T, typename = void>
struct Codec;  // primary template: specialized below

/// Types with a *partial* Codec specialization that could also be trivially
/// copyable (e.g. an iterator over a data-free source) specialize this to
/// opt out of the generic memcpy codec and avoid an ambiguity.
template <typename T>
struct use_custom_codec : std::false_type {};

// -- detection of user aggregates that declared their fields ---------------

template <typename T, typename = void>
struct has_fields : std::false_type {};

template <typename T>
struct has_fields<T, std::void_t<decltype(triolet_visit_fields(
                         std::declval<T&>(), [](auto&...) {}))>>
    : std::true_type {};

// -- trivially copyable fast path -------------------------------------------

template <typename T>
struct Codec<T, std::enable_if_t<std::is_trivially_copyable_v<T> &&
                                 !has_fields<T>::value &&
                                 !use_custom_codec<T>::value>> {
  static void write(ByteWriter& w, const T& v) { w.write_pod(v); }
  static void read(ByteReader& r, T& v) { v = r.read_pod<T>(); }
};

// -- generic helpers ---------------------------------------------------------

template <typename T>
void write(ByteWriter& w, const T& v) {
  Codec<std::remove_cvref_t<T>>::write(w, v);
}

template <typename T>
void read(ByteReader& r, T& v) {
  Codec<std::remove_cvref_t<T>>::read(r, v);
}

template <typename T>
T read(ByteReader& r) {
  T v{};
  read(r, v);
  return v;
}

// -- vectors and strings -----------------------------------------------------

template <typename T>
struct Codec<std::vector<T>> {
  static void write(ByteWriter& w, const std::vector<T>& v) {
    w.write_pod<std::uint64_t>(v.size());
    if constexpr (std::is_trivially_copyable_v<T>) {
      // Block copy; on a segment-mode writer, large spans are recorded as
      // borrowed iovec segments instead (the zero-copy send path).
      w.write_borrowable(v.data(), v.size() * sizeof(T));
    } else {
      for (const auto& e : v) serial::write(w, e);
    }
  }
  static void read(ByteReader& r, std::vector<T>& v) {
    const auto n = r.read_pod<std::uint64_t>();
    v.resize(static_cast<std::size_t>(n));
    if constexpr (std::is_trivially_copyable_v<T>) {
      r.read_raw(v.data(), v.size() * sizeof(T));
    } else {
      for (auto& e : v) serial::read(r, e);
    }
  }
};

// std::vector<bool> is a packed proxy container: the contiguous fast path
// cannot apply, so it is framed bytewise.
template <>
struct Codec<std::vector<bool>> {
  static void write(ByteWriter& w, const std::vector<bool>& v) {
    w.write_pod<std::uint64_t>(v.size());
    for (bool b : v) w.write_pod<std::uint8_t>(b ? 1 : 0);
  }
  static void read(ByteReader& r, std::vector<bool>& v) {
    const auto n = r.read_pod<std::uint64_t>();
    v.resize(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = r.read_pod<std::uint8_t>() != 0;
    }
  }
};

template <>
struct Codec<std::string> {
  static void write(ByteWriter& w, const std::string& v) {
    w.write_pod<std::uint64_t>(v.size());
    w.write_borrowable(v.data(), v.size());
  }
  static void read(ByteReader& r, std::string& v) {
    const auto n = r.read_pod<std::uint64_t>();
    v.resize(static_cast<std::size_t>(n));
    r.read_raw(v.data(), v.size());
  }
};

// -- associative containers ---------------------------------------------------

template <typename K, typename V, typename C, typename A>
struct Codec<std::map<K, V, C, A>> {
  static void write(ByteWriter& w, const std::map<K, V, C, A>& m) {
    w.write_pod<std::uint64_t>(m.size());
    for (const auto& [k, v] : m) {
      serial::write(w, k);
      serial::write(w, v);
    }
  }
  static void read(ByteReader& r, std::map<K, V, C, A>& m) {
    m.clear();
    const auto n = r.read_pod<std::uint64_t>();
    for (std::uint64_t i = 0; i < n; ++i) {
      K k{};
      serial::read(r, k);
      V v{};
      serial::read(r, v);
      m.emplace(std::move(k), std::move(v));
    }
  }
};

template <typename K, typename V, typename H, typename E, typename A>
struct Codec<std::unordered_map<K, V, H, E, A>> {
  static void write(ByteWriter& w,
                    const std::unordered_map<K, V, H, E, A>& m) {
    // Deterministic wire form regardless of hash ordering: sort by key.
    std::map<K, V> sorted(m.begin(), m.end());
    serial::write(w, sorted);
  }
  static void read(ByteReader& r, std::unordered_map<K, V, H, E, A>& m) {
    std::map<K, V> sorted;
    serial::read(r, sorted);
    m.clear();
    for (auto& [k, v] : sorted) m.emplace(k, std::move(v));
  }
};

// -- pairs, tuples, arrays, optionals ---------------------------------------

template <typename A, typename B>
struct Codec<std::pair<A, B>,
             std::enable_if_t<!std::is_trivially_copyable_v<std::pair<A, B>>>> {
  static void write(ByteWriter& w, const std::pair<A, B>& v) {
    serial::write(w, v.first);
    serial::write(w, v.second);
  }
  static void read(ByteReader& r, std::pair<A, B>& v) {
    serial::read(r, v.first);
    serial::read(r, v.second);
  }
};

template <typename... Ts>
struct Codec<std::tuple<Ts...>,
             std::enable_if_t<!std::is_trivially_copyable_v<std::tuple<Ts...>>>> {
  static void write(ByteWriter& w, const std::tuple<Ts...>& v) {
    std::apply([&](const auto&... e) { (serial::write(w, e), ...); }, v);
  }
  static void read(ByteReader& r, std::tuple<Ts...>& v) {
    std::apply([&](auto&... e) { (serial::read(r, e), ...); }, v);
  }
};

template <typename T, std::size_t N>
struct Codec<std::array<T, N>,
             std::enable_if_t<!std::is_trivially_copyable_v<std::array<T, N>>>> {
  static void write(ByteWriter& w, const std::array<T, N>& v) {
    for (const auto& e : v) serial::write(w, e);
  }
  static void read(ByteReader& r, std::array<T, N>& v) {
    for (auto& e : v) serial::read(r, e);
  }
};

template <typename T>
struct Codec<std::optional<T>,
             std::enable_if_t<!std::is_trivially_copyable_v<std::optional<T>>>> {
  static void write(ByteWriter& w, const std::optional<T>& v) {
    w.write_pod<std::uint8_t>(v.has_value() ? 1 : 0);
    if (v) serial::write(w, *v);
  }
  static void read(ByteReader& r, std::optional<T>& v) {
    if (r.read_pod<std::uint8_t>()) {
      v.emplace();
      serial::read(r, *v);
    } else {
      v.reset();
    }
  }
};

// -- user aggregates ----------------------------------------------------------

template <typename T>
struct Codec<T, std::enable_if_t<has_fields<T>::value>> {
  static void write(ByteWriter& w, const T& v) {
    triolet_visit_fields(const_cast<T&>(v),
                         [&](auto&... fields) { (serial::write(w, fields), ...); });
  }
  static void read(ByteReader& r, T& v) {
    triolet_visit_fields(v,
                         [&](auto&... fields) { (serial::read(r, fields), ...); });
  }
};

// -- top-level convenience ----------------------------------------------------

template <typename T>
std::vector<std::byte> to_bytes(const T& v) {
  ByteWriter w;
  write(w, v);
  return w.take();
}

/// Serializes `v` as a scatter-gather list: large trivially-copyable array
/// spans are *borrowed*, not copied, so `v` (and anything it references)
/// must outlive the returned SegmentedBytes until it is gathered. The
/// net:: substrate uses this for its zero-copy send path.
template <typename T>
SegmentedBytes to_segments(const T& v) {
  ByteWriter w = ByteWriter::segmented();
  write(w, v);
  return w.take_segments();
}

template <typename T>
T from_bytes(std::span<const std::byte> bytes) {
  ByteReader r(bytes);
  T v = read<T>(r);
  TRIOLET_CHECK(r.exhausted(), "trailing bytes after deserialization");
  return v;
}

/// Number of bytes `v` occupies on the wire (by dry-running the writer).
template <typename T>
std::size_t wire_size(const T& v) {
  ByteWriter w;
  write(w, v);
  return w.size();
}

}  // namespace triolet::serial
