#pragma once

// Payload checksums: XXH64 with seed 0, written from the published xxHash
// specification in portable C++ (loads through std::memcpy, no intrinsics).
// The net:: substrate stamps every message with `checksum` so corruption
// (e.g. a slicing bug producing the wrong byte range) is caught at the
// receiver rather than surfacing as wrong numerics later. XXH64 reads
// 32-byte stripes into four independent 64-bit lanes, so it runs near memory
// bandwidth on one thread, but one pass cannot be split across threads.
//
// Residency tokens use `slice_checksum` instead: XXH64 over the XXH64
// digests of the slice's consecutive kSliceBlockBytes blocks. Every byte is
// still hashed, but the blocks are independent, so a receiver validating a
// cache hit can hash them on several threads through a BlockRunner. Both
// digests stay 64 bits wide: message stamps and residency tokens are 8
// bytes on the wire.

#include <cstddef>
#include <cstdint>
#include <functional>
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

/// XXH64 (seed 0) of a byte range: the message stamp.
std::uint64_t checksum(std::span<const std::byte> bytes);

/// Block size of slice_checksum. The last block of a slice may be shorter.
inline constexpr std::size_t kSliceBlockBytes = std::size_t{256} << 10;

/// Runs body(lo, hi) on disjoint ranges that together cover the block
/// indices [0, n), possibly on several threads at once, and returns once
/// every call has returned.
using BlockRunner = std::function<void(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body)>;

/// The residency token of a slice: XXH64 (seed 0) over the 8-byte XXH64
/// digests of its consecutive kSliceBlockBytes blocks, in block order (an
/// empty slice has no blocks). A slice of more than one block hashes its
/// blocks through `run`; an empty runner hashes them in order on the
/// calling thread. The value does not depend on the runner.
std::uint64_t slice_checksum(std::span<const std::byte> bytes,
                             const BlockRunner& run = {});

}  // namespace triolet::serial
