#pragma once

// Resident distributed data: persistent handles whose slices are cached on
// the ranks that received them, so an iterative skeleton loop stops paying
// the full scatter cost every round.
//
// The paper's `slice()` protocol (§3.5) computes *which* bytes each node
// needs; this header makes the placement itself a persistent object:
//
//   * `DistArray<T>` owns an Array1<T> plus a process-unique identity and a
//     version counter bumped on mutation. `from_resident(d)` builds an
//     ordinary core:: iterator over it — every existing skeleton call site
//     works unchanged; only the wire format of its slices differs.
//   * `ResidentSource<T>` is the iterator source: a shared, read-only view
//     of [lo, hi) that narrows under slice_source without copying (the
//     plain Array1 source copies its sub-range on every slice). The same
//     type views the owner's array and a receiver's cached slice: it holds
//     an aliasing pointer to the storage plus the storage's base index. Its
//     codec consults the thread-local residency encoder/decoder (serial/
//     residency.hpp): with a scope installed, a slice the receiver already
//     holds travels as an 8-byte checksum token instead of its payload, and
//     the decoded source views the cache's validated bytes in place.
//   * `DistContext<C>` / `ResidentCtx<C>` give broadcast contexts the same
//     treatment — an unchanged closure context is shipped once and then
//     tokenized, which matters for map_with loops whose context is big.
//
// Wire format of one resident slice (after the id/version/range header):
//   kind 0: inline payload (write_borrowable -> zero-copy eligible)
//   kind 1: u64 stream checksum of the payload the receiver must hold.
// The receiver checks the header before it sizes or resolves anything: a
// reversed range, an element count whose byte size overflows, or an inline
// length longer than the message aborts the decode.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "array/array.hpp"
#include "core/iter.hpp"
#include "core/skeletons.hpp"
#include "serial/residency.hpp"
#include "serial/serialize.hpp"
#include "support/macros.hpp"

namespace triolet::dist {

/// Iterator source over a resident array: a shared, zero-copy, read-only
/// view of [lo, hi) carrying the owning DistArray's identity. `data` points
/// at the element with global index `base` and shares ownership of the
/// storage it points into — the owner's array, or the receiver's cached
/// slice buffer (serial::SliceBuffer).
template <typename T>
struct ResidentSource {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "a received ResidentSource views a slice buffer from "
                "operator new[], which guarantees only this alignment");

  std::shared_ptr<const T> data;
  index_t base = 0;
  index_t lo = 0;
  index_t hi = 0;
  std::uint64_t id = 0;
  std::uint64_t version = 0;

  const T& operator[](index_t i) const { return data.get()[i - base]; }

  serial::SliceKey key() const { return {id, version, lo, hi}; }

  /// The elements of [lo, hi).
  std::span<const T> elements() const {
    return {data.get() + (lo - base), static_cast<std::size_t>(hi - lo)};
  }

  /// Raw element bytes of this view — the payload the residency cache
  /// stores and checksums.
  std::span<const std::byte> payload_bytes() const {
    return std::as_bytes(elements());
  }

  bool operator==(const ResidentSource& o) const {
    return id == o.id && version == o.version && lo == o.lo && hi == o.hi &&
           std::ranges::equal(elements(), o.elements());
  }
};

/// Narrowing a resident view shares the array — no copy, unlike the
/// Array1 source whose slice_source copies the sub-range.
template <typename T>
ResidentSource<T> slice_source(const ResidentSource<T>& s, core::Seq,
                               core::Seq sub) {
  TRIOLET_CHECK(sub.lo >= s.lo && sub.hi <= s.hi && sub.lo <= sub.hi,
                "resident slice out of range");
  return {s.data, s.base, sub.lo, sub.hi, s.id, s.version};
}

/// Extractor for resident iterators (the Array1Ext analogue).
struct ResidentExt {
  template <typename T>
  T operator()(const ResidentSource<T>& s, index_t i) const {
    return s[i];
  }
};

/// Persistent, identity-carrying owner of a distributed array. Move-only:
/// the identity maps to this object in the process-wide provider registry
/// (receivers fetch authoritative bytes from it on a cache miss).
///
/// Mutation contract: call mutate() to get a writable reference — it bumps
/// the version, so every rank's cached slices of older versions are retired
/// and the next scatter re-ships the data. Do not mutate while sends over
/// this array are still in flight (the same buffer-stability contract as
/// MPI_Isend; the write-time stream checksum turns a violation into a
/// validation failure at the receiver instead of silent corruption).
template <typename T>
class DistArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "DistArray elements must be trivially copyable (the slice "
                "cache stores raw element bytes)");

 public:
  explicit DistArray(Array1<T> data)
      : array_(std::make_shared<Array1<T>>(std::move(data))),
        version_(std::make_shared<std::atomic<std::uint64_t>>(1)) {
    id_ = serial::ResidentProviderRegistry::instance().register_provider(
        [array = std::weak_ptr<const Array1<T>>(array_),
         version = std::weak_ptr<const std::atomic<std::uint64_t>>(version_)](
            const serial::SliceKey& key) {
          auto a = array.lock();
          auto v = version.lock();
          TRIOLET_CHECK(a && v, "resident fetch after DistArray destroyed");
          TRIOLET_CHECK(key.version == v->load(std::memory_order_acquire),
                        "resident fetch for a retired version");
          TRIOLET_CHECK(key.lo >= a->lo() && key.hi <= a->hi() &&
                            key.lo <= key.hi,
                        "resident fetch out of range");
          const T* p = a->data() + (key.lo - a->lo());
          const auto bytes = std::as_bytes(std::span<const T>(
              p, static_cast<std::size_t>(key.hi - key.lo)));
          return std::vector<std::byte>(bytes.begin(), bytes.end());
        });
  }

  ~DistArray() {
    if (id_ != 0) serial::ResidentProviderRegistry::instance().unregister(id_);
  }

  DistArray(DistArray&& o) noexcept
      : array_(std::move(o.array_)), version_(std::move(o.version_)),
        id_(std::exchange(o.id_, 0)) {}
  DistArray& operator=(DistArray&& o) noexcept {
    if (this != &o) {
      if (id_ != 0) {
        serial::ResidentProviderRegistry::instance().unregister(id_);
      }
      array_ = std::move(o.array_);
      version_ = std::move(o.version_);
      id_ = std::exchange(o.id_, 0);
    }
    return *this;
  }
  DistArray(const DistArray&) = delete;
  DistArray& operator=(const DistArray&) = delete;

  const Array1<T>& array() const { return *array_; }
  std::uint64_t id() const { return id_; }
  std::uint64_t version() const {
    return version_->load(std::memory_order_acquire);
  }

  /// Stable autotuning key for scheduled skeletons over this array: the
  /// several reductions of one iterative job that share the array should
  /// share one sched::AutoTuner, so their rounds accumulate into the same
  /// calibration (SchedOptions::tune_key; see dist::auto_options).
  std::uint64_t tune_key() const { return id_; }

  /// Writable access; bumps the version so cached slices are invalidated.
  /// Write elements only: sources alias the array's storage, so resizing
  /// or reassigning the array would leave them dangling.
  Array1<T>& mutate() {
    version_->fetch_add(1, std::memory_order_acq_rel);
    return *array_;
  }

  /// The iterator source over the full array at the current version.
  ResidentSource<T> source() const {
    return {std::shared_ptr<const T>(array_, array_->data()), array_->lo(),
            array_->lo(), array_->hi(), id_, version()};
  }

 private:
  std::shared_ptr<Array1<T>> array_;
  std::shared_ptr<std::atomic<std::uint64_t>> version_;
  std::uint64_t id_ = 0;
};

/// Iterator over a resident array — a drop-in replacement for
/// core::from_array(d.array()) whose slices participate in the residency
/// protocol.
template <typename T>
auto from_resident(const DistArray<T>& d) {
  auto src = d.source();
  const core::Seq dom{src.lo, src.hi};
  return core::idx_flat(dom, std::move(src), ResidentExt{});
}

/// Wire-side holder of a resident broadcast context: like core::Bcast, but
/// carrying an identity + version so an unchanged context is tokenized
/// after its first trip to each rank. Built by DistContext::ctx().
template <typename C>
struct ResidentCtx {
  std::shared_ptr<const C> value;
  std::uint64_t id = 0;
  std::uint64_t version = 0;

  bool operator==(const ResidentCtx& o) const {
    if (id != o.id || version != o.version) return false;
    if (!value || !o.value) return !value == !o.value;
    return *value == *o.value;
  }
};

template <typename C, typename D>
ResidentCtx<C> slice_source(const ResidentCtx<C>& c, D, D) {
  return c;
}

/// Uniform context access (found by ADL from core::CtxExt).
template <typename C>
const C& ctx_get(const ResidentCtx<C>& c) {
  TRIOLET_CHECK(c.value != nullptr, "ctx_get on an empty ResidentCtx");
  return *c.value;
}

/// Persistent owner of a broadcast context (the closure-environment
/// analogue of DistArray). update() installs a new value and bumps the
/// version; an unchanged context is shipped once per rank and tokenized on
/// every later round.
template <typename C>
class DistContext {
 public:
  explicit DistContext(C value) : value_(std::make_shared<Holder>()) {
    value_->value = std::make_shared<const C>(std::move(value));
    id_ = serial::ResidentProviderRegistry::instance().register_provider(
        [holder = std::weak_ptr<const Holder>(value_)](
            const serial::SliceKey& key) {
          auto h = holder.lock();
          TRIOLET_CHECK(h, "resident fetch after DistContext destroyed");
          TRIOLET_CHECK(
              key.version == h->version.load(std::memory_order_acquire),
              "resident fetch for a retired context version");
          auto bytes = serial::to_bytes(*h->value);
          TRIOLET_CHECK(key.lo == 0 &&
                            key.hi == static_cast<std::int64_t>(bytes.size()),
                        "resident context fetch with wrong byte range");
          return bytes;
        });
  }

  ~DistContext() {
    if (id_ != 0) serial::ResidentProviderRegistry::instance().unregister(id_);
  }

  DistContext(DistContext&& o) noexcept
      : value_(std::move(o.value_)), id_(std::exchange(o.id_, 0)) {}
  DistContext& operator=(DistContext&& o) noexcept {
    if (this != &o) {
      if (id_ != 0) {
        serial::ResidentProviderRegistry::instance().unregister(id_);
      }
      value_ = std::move(o.value_);
      id_ = std::exchange(o.id_, 0);
    }
    return *this;
  }
  DistContext(const DistContext&) = delete;
  DistContext& operator=(const DistContext&) = delete;

  const C& value() const { return *value_->value; }
  std::uint64_t version() const {
    return value_->version.load(std::memory_order_acquire);
  }

  /// Stable autotuning key for scheduled skeletons parameterized by this
  /// context (SchedOptions::tune_key; see DistArray::tune_key). Stays fixed
  /// across update() calls — version bumps retire cached *data*, not the
  /// tuner's accumulated calibration.
  std::uint64_t tune_key() const { return id_; }

  /// Replaces the context value; the version bump retires cached copies.
  void update(C v) {
    value_->value = std::make_shared<const C>(std::move(v));
    value_->version.fetch_add(1, std::memory_order_acq_rel);
  }

  /// The wire-side holder to pass to map_with.
  ResidentCtx<C> ctx() const { return {value_->value, id_, version()}; }

 private:
  struct Holder {
    std::shared_ptr<const C> value;
    std::atomic<std::uint64_t> version{1};
  };

  std::shared_ptr<Holder> value_;
  std::uint64_t id_ = 0;
};

/// map_with whose context is resident: the context holder crosses the wire
/// as-is (tokenized after its first trip) instead of being wrapped in
/// Bcast. Found by ADL alongside core::map_with; more specialized, so it
/// wins for ResidentCtx arguments.
template <typename D, typename Src, typename Ext, typename C, typename F>
auto map_with(const core::IdxFlatIter<D, Src, Ext>& it, ResidentCtx<C> ctx,
              F f) {
  return core::idx_flat(it.ix.dom, std::pair(it.ix.src, std::move(ctx)),
                        core::CtxExt<Ext, F>{it.ix.ext.fn(), f}, it.hint);
}

/// Convenience: pass the DistContext itself.
template <typename D, typename Src, typename Ext, typename C, typename F>
auto map_with(const core::IdxFlatIter<D, Src, Ext>& it,
              const DistContext<C>& ctx, F f) {
  return map_with(it, ctx.ctx(), std::move(f));
}

}  // namespace triolet::dist

namespace triolet::core {

// Resident leaves of the source-residency trait (see core/sources.hpp).
template <typename T>
struct source_uses_residency<triolet::dist::ResidentSource<T>>
    : std::true_type {};
template <typename C>
struct source_uses_residency<triolet::dist::ResidentCtx<C>> : std::true_type {
};

}  // namespace triolet::core

namespace triolet::serial {

template <typename T>
struct use_custom_codec<triolet::dist::ResidentSource<T>> : std::true_type {};

template <typename T>
struct Codec<triolet::dist::ResidentSource<T>> {
  using S = triolet::dist::ResidentSource<T>;

  static void write(ByteWriter& w, const S& s) {
    TRIOLET_CHECK(s.data != nullptr || s.lo == s.hi,
                  "serializing an empty ResidentSource");
    w.write_pod(s.id);
    w.write_pod(s.version);
    w.write_pod(s.lo);
    w.write_pod(s.hi);
    const auto payload = s.payload_bytes();
    // Empty slices always go inline: a zero-byte token buys nothing and an
    // empty cache entry is indistinguishable from a metadata-only one.
    if (auto* enc = payload.empty() ? nullptr : current_residency_encoder()) {
      if (auto token = enc->try_token(s.key(), payload)) {
        w.write_pod<std::uint8_t>(1);  // resident grant: checksum token only
        w.write_pod<std::uint64_t>(*token);
        return;
      }
    }
    w.write_pod<std::uint8_t>(0);  // inline payload (zero-copy eligible)
    w.write_borrowable(payload.data(), payload.size());
  }

  static void read(ByteReader& r, S& s) {
    const auto id = r.read_pod<std::uint64_t>();
    const auto version = r.read_pod<std::uint64_t>();
    const auto lo = r.read_pod<index_t>();
    const auto hi = r.read_pod<index_t>();
    const auto kind = r.read_pod<std::uint8_t>();
    // The header comes off the wire: check it before it sizes or resolves
    // anything. The unsigned difference is exact once lo <= hi holds.
    TRIOLET_CHECK(lo <= hi, "resident slice header has hi < lo");
    const std::uint64_t count =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    TRIOLET_CHECK(count <= static_cast<std::uint64_t>(PTRDIFF_MAX) / sizeof(T),
                  "resident slice header's byte size overflows");
    const serial::SliceKey key{id, version, lo, hi};
    const std::size_t nbytes = static_cast<std::size_t>(count) * sizeof(T);
    auto* dec = current_residency_decoder();
    SliceBuffer bytes;
    if (kind == 0) {
      const auto raw = r.borrow(nbytes);
      // An empty slice has nothing to view and is never cached.
      if (nbytes != 0) {
        bytes = dec != nullptr ? dec->store(key, raw) : make_slice_buffer(raw);
      }
    } else {
      const auto token = r.read_pod<std::uint64_t>();
      TRIOLET_CHECK(dec != nullptr,
                    "resident token received without a decode scope");
      bytes = dec->resolve(key, token, nbytes);
    }
    // Every slice buffer is filled by memcpy, which implicitly creates the
    // (trivially copyable) T elements this view reads.
    const auto* elems = reinterpret_cast<const T*>(bytes.get());
    s = S{std::shared_ptr<const T>(std::move(bytes), elems), lo, lo, hi, id,
          version};
  }
};

template <typename C>
struct use_custom_codec<triolet::dist::ResidentCtx<C>> : std::true_type {};

template <typename C>
struct Codec<triolet::dist::ResidentCtx<C>> {
  using S = triolet::dist::ResidentCtx<C>;

  static void write(ByteWriter& w, const S& s) {
    TRIOLET_CHECK(s.value != nullptr, "serializing an empty ResidentCtx");
    w.write_pod(s.id);
    w.write_pod(s.version);
    // The context is serialized to a flat side buffer first: its byte
    // length defines the slice key ([0, len)), and the inline path copies
    // it into the stream (a borrowed segment would dangle — the side
    // buffer dies before the gather).
    const std::vector<std::byte> bytes = to_bytes(*s.value);
    const std::uint64_t len = bytes.size();
    w.write_pod(len);
    const serial::SliceKey key{s.id, s.version, 0,
                               static_cast<std::int64_t>(len)};
    if (auto* enc = bytes.empty() ? nullptr : current_residency_encoder()) {
      if (auto token = enc->try_token(key, bytes)) {
        w.write_pod<std::uint8_t>(1);
        w.write_pod<std::uint64_t>(*token);
        return;
      }
    }
    w.write_pod<std::uint8_t>(0);
    w.write_raw(bytes.data(), bytes.size());
  }

  static void read(ByteReader& r, S& s) {
    const auto id = r.read_pod<std::uint64_t>();
    const auto version = r.read_pod<std::uint64_t>();
    const auto len = r.read_pod<std::uint64_t>();
    const auto kind = r.read_pod<std::uint8_t>();
    const serial::SliceKey key{id, version, 0,
                               static_cast<std::int64_t>(len)};
    auto* dec = current_residency_decoder();
    std::span<const std::byte> bytes;
    SliceBuffer resolved;  // keeps a resolved slice alive while C decodes
    if (kind == 0) {
      // Checked before the borrow: the length comes off the wire.
      TRIOLET_CHECK(len <= r.remaining(),
                    "resident context header claims more bytes than the "
                    "message holds");
      bytes = r.borrow(static_cast<std::size_t>(len));
      if (dec != nullptr && len != 0) dec->store(key, bytes);
    } else {
      const auto token = r.read_pod<std::uint64_t>();
      TRIOLET_CHECK(dec != nullptr,
                    "resident token received without a decode scope");
      resolved = dec->resolve(key, token, static_cast<std::size_t>(len));
      bytes = {resolved.get(), static_cast<std::size_t>(len)};
    }
    s = S{std::make_shared<const C>(from_bytes<C>(bytes)), id, version};
  }
};

}  // namespace triolet::serial
