#pragma once

// Payload checksums: XXH64 with seed 0, written from the published xxHash
// specification in portable C++ (loads through std::memcpy, no intrinsics).
// The net:: substrate stamps every message with a checksum so corruption
// (e.g. a slicing bug producing the wrong byte range) is caught at the
// receiver rather than surfacing as wrong numerics later, and a residency
// cache hit recomputes the checksum of the cached slice before trusting it.
// XXH64 reads 32-byte stripes into four independent 64-bit lanes, so it runs
// near memory bandwidth. The digest stays 64 bits wide: message stamps and
// residency tokens are 8 bytes on the wire.

#include <cstddef>
#include <cstdint>
#include <span>

namespace triolet::serial {

/// Streaming XXH64 (seed 0). Feeding the chunks of a stream through
/// update() in order yields the same value() as one checksum() over their
/// concatenation, however the stream is split — the property the zero-copy
/// path relies on to stamp a payload at *write* time, before borrowed
/// segments are gathered. A partial stripe is buffered until the next
/// update completes it; value() does not consume the state.
class Checksum {
 public:
  Checksum();
  void update(std::span<const std::byte> bytes);
  std::uint64_t value() const;

 private:
  static constexpr std::size_t kStripe = 32;

  std::uint64_t lanes_[4];  // seeded by the constructor
  std::uint64_t total_ = 0;
  std::size_t buffered_ = 0;  // == total_ % kStripe
  std::byte buf_[kStripe]{};
};

/// XXH64 (seed 0) of a byte range.
std::uint64_t checksum(std::span<const std::byte> bytes);

}  // namespace triolet::serial
