#pragma once

// Slice residency: the serialization-side half of the rescatter-avoidance
// protocol.
//
// The paper's data-distribution story (§3.5) slices a source so each node
// receives only the sub-array it needs — but a sliced payload is rebuilt and
// resent on every skeleton call, even when the receiver already holds those
// exact bytes from the previous round. This header defines the vocabulary
// that lets a codec ask "does the receiver already have this slice?" while
// it serializes:
//
//   * `SliceKey` names a slice of a resident source: (id, version, range).
//     The version is bumped whenever the source mutates, so a stale cached
//     slice can never be mistaken for current data.
//   * `ResidencyEncoder` / `ResidencyDecoder` are the sender/receiver hooks
//     a codec consults through a thread-local slot. With no scope installed,
//     codecs serialize slices inline exactly as before — residency is
//     strictly opt-in and invisible to non-resident types.
//   * A decoder hands out the receiver cache's own bytes: a shared,
//     read-only `SliceBuffer` that the decoded source views in place. A
//     validated hit copies nothing, and an inline slice is copied once, into
//     the cache. The view keeps the buffer alive after its cache entry is
//     retired or evicted.
//   * `ResidentProviderRegistry` maps a source id back to its live bytes so
//     a receiver whose cache misses (or fails validation) can fetch the
//     authoritative slice from the owner.
//   * The token both ends compute is `slice_checksum` (serial/checksum.hpp):
//     XXH64 over the XXH64 digests of the slice's 256 KiB blocks, so a
//     receiver can hash the blocks of a large hit on several threads.
//
// The net:: layer implements the encoder/decoder against its per-rank
// SliceCache (net/slice_cache.hpp, net/residency.hpp); dist:: supplies the
// resident source types (dist/dist_array.hpp).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "serial/checksum.hpp"
#include "support/macros.hpp"

namespace triolet::serial {

/// Identity of one slice of a resident source. `lo`/`hi` are in the source's
/// own index space for arrays; context-style sources use [0, byte length).
struct SliceKey {
  std::uint64_t id = 0;       // process-unique source identity
  std::uint64_t version = 0;  // bumped on every mutation of the source
  std::int64_t lo = 0;
  std::int64_t hi = 0;

  bool operator==(const SliceKey&) const = default;
};

struct SliceKeyHash {
  static_assert(std::has_unique_object_representations_v<SliceKey>);
  std::size_t operator()(const SliceKey& k) const {
    // The payload checksum over the key's 32 bytes (no padding).
    return static_cast<std::size_t>(
        checksum(std::as_bytes(std::span<const SliceKey, 1>(&k, 1))));
  }
};

/// Sender-side hook. A codec about to serialize a resident slice offers the
/// key and the raw payload; a non-nullopt return is the token — the
/// payload's slice_checksum (serial/checksum.hpp), which the receiver will
/// validate against — and the codec writes it instead of the bytes.
class ResidencyEncoder {
 public:
  virtual ~ResidencyEncoder() = default;
  virtual std::optional<std::uint64_t> try_token(
      const SliceKey& key, std::span<const std::byte> payload) = 0;
};

/// Read-only bytes of one resident slice, shared between the receiver's
/// cache and every source decoded from it.
using SliceBuffer = std::shared_ptr<const std::byte>;

/// A new slice buffer holding a copy of `bytes`. It comes from operator
/// new[], so it is aligned to __STDCPP_DEFAULT_NEW_ALIGNMENT__ and can be
/// viewed as an array of any element type with no stricter alignment, and
/// it is not zero-filled before the copy (make_shared<std::byte[]> would
/// zero-fill and guarantees only byte alignment).
inline std::shared_ptr<std::byte> make_slice_buffer(
    std::span<const std::byte> bytes) {
  std::shared_ptr<std::byte> buf(new std::byte[bytes.size()],
                                 std::default_delete<std::byte[]>());
  if (!bytes.empty()) std::memcpy(buf.get(), bytes.data(), bytes.size());
  return buf;
}

/// Receiver-side hook. Both calls return the slice's bytes as the
/// receiver cache's own buffer:
///   * `resolve` serves a token. A cached slice is used only after its
///     slice_checksum, recomputed over every byte, equals the token; a miss
///     or a mismatch fetches the slice from its owner, and fetched bytes
///     must equal the token too.
///   * `store` copies an inline-received slice into the cache for future
///     rounds.
class ResidencyDecoder {
 public:
  virtual ~ResidencyDecoder() = default;
  virtual SliceBuffer resolve(const SliceKey& key, std::uint64_t checksum,
                              std::size_t len) = 0;
  virtual SliceBuffer store(const SliceKey& key,
                            std::span<const std::byte> payload) = 0;
};

namespace detail {
inline ResidencyEncoder*& tls_encoder() {
  thread_local ResidencyEncoder* enc = nullptr;
  return enc;
}
inline ResidencyDecoder*& tls_decoder() {
  thread_local ResidencyDecoder* dec = nullptr;
  return dec;
}
}  // namespace detail

/// The encoder active on this thread, or nullptr (serialize inline).
inline ResidencyEncoder* current_residency_encoder() {
  return detail::tls_encoder();
}
/// The decoder active on this thread, or nullptr (tokens are an error).
inline ResidencyDecoder* current_residency_decoder() {
  return detail::tls_decoder();
}

/// RAII installation of an encoder for the enclosing serialization calls.
class ScopedResidencyEncoder {
 public:
  explicit ScopedResidencyEncoder(ResidencyEncoder* enc)
      : prev_(detail::tls_encoder()) {
    detail::tls_encoder() = enc;
  }
  ~ScopedResidencyEncoder() { detail::tls_encoder() = prev_; }
  ScopedResidencyEncoder(const ScopedResidencyEncoder&) = delete;
  ScopedResidencyEncoder& operator=(const ScopedResidencyEncoder&) = delete;

 private:
  ResidencyEncoder* prev_;
};

/// RAII installation of a decoder for the enclosing deserialization calls.
class ScopedResidencyDecoder {
 public:
  explicit ScopedResidencyDecoder(ResidencyDecoder* dec)
      : prev_(detail::tls_decoder()) {
    detail::tls_decoder() = dec;
  }
  ~ScopedResidencyDecoder() { detail::tls_decoder() = prev_; }
  ScopedResidencyDecoder(const ScopedResidencyDecoder&) = delete;
  ScopedResidencyDecoder& operator=(const ScopedResidencyDecoder&) = delete;

 private:
  ResidencyDecoder* prev_;
};

/// Process-wide map from resident-source id to a provider that can produce
/// the authoritative bytes of any slice (the cache-miss fallback source).
/// DistArray/DistContext register on construction and unregister on
/// destruction; ids are never reused within a process.
class ResidentProviderRegistry {
 public:
  using Provider = std::function<std::vector<std::byte>(const SliceKey&)>;

  static ResidentProviderRegistry& instance() {
    static ResidentProviderRegistry r;
    return r;
  }

  std::uint64_t register_provider(Provider p) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t id = next_id_++;
    providers_.emplace(id, std::move(p));
    return id;
  }

  void unregister(std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    providers_.erase(id);
  }

  /// Fetches the authoritative bytes for `key`. The provider validates the
  /// version itself (a fetch for a retired version is a protocol bug).
  std::vector<std::byte> fetch(const SliceKey& key) const {
    Provider p;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = providers_.find(key.id);
      TRIOLET_CHECK(it != providers_.end(),
                    "resident fetch for an unregistered source id");
      p = it->second;
    }
    return p(key);  // outside the lock: providers may serialize large values
  }

 private:
  ResidentProviderRegistry() = default;

  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;  // 0 means "no identity"
  std::unordered_map<std::uint64_t, Provider> providers_;
};

}  // namespace triolet::serial
