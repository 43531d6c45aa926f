#include "serial/checksum.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "serial/bytes.hpp"

namespace triolet::serial {

namespace {

/// Per-thread LIFO of retired staging vectors. LIFO keeps the hottest
/// (largest-capacity, cache-warm) buffer on top; the small cap bounds idle
/// memory per thread.
constexpr std::size_t kStreamCacheCap = 8;

struct StreamBufferCache {
  std::vector<std::vector<std::byte>> stack;
};

thread_local StreamBufferCache tl_stream_cache;

}  // namespace

std::vector<std::byte> acquire_stream_buffer() {
  auto& stack = tl_stream_cache.stack;
  if (stack.empty()) return {};
  std::vector<std::byte> v = std::move(stack.back());
  stack.pop_back();
  return v;
}

void recycle_stream_buffer(std::vector<std::byte> v) {
  if (v.capacity() == 0) return;
  auto& stack = tl_stream_cache.stack;
  if (stack.size() >= kStreamCacheCap) return;
  v.clear();
  stack.push_back(std::move(v));
}

namespace {

// XXH64's five primes (xxHash specification, "Prime constants").
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

/// Little-endian load of a T (the spec reads every lane little-endian).
template <typename T>
T read_le(const std::byte* p) {
  T v = 0;
  std::memcpy(&v, p, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    T r = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      r = static_cast<T>((r << 8) | ((v >> (8 * i)) & 0xff));
    }
    v = r;
  }
  return v;
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kPrime2, 31) * kPrime1;
}

std::uint64_t merge(std::uint64_t acc, std::uint64_t lane) {
  return (acc ^ lane_round(0, lane)) * kPrime1 + kPrime4;
}

/// Folds `stripes` consecutive 32-byte stripes at `p` into the four lanes.
void consume_stripes(std::uint64_t (&lanes)[4], const std::byte* p,
                     std::size_t stripes) {
  std::uint64_t v1 = lanes[0], v2 = lanes[1], v3 = lanes[2], v4 = lanes[3];
  for (; stripes != 0; --stripes, p += 32) {
    v1 = lane_round(v1, read_le<std::uint64_t>(p));
    v2 = lane_round(v2, read_le<std::uint64_t>(p + 8));
    v3 = lane_round(v3, read_le<std::uint64_t>(p + 16));
    v4 = lane_round(v4, read_le<std::uint64_t>(p + 24));
  }
  lanes[0] = v1;
  lanes[1] = v2;
  lanes[2] = v3;
  lanes[3] = v4;
}

}  // namespace

// Seed-0 lanes: {seed + P1 + P2, seed + P2, seed, seed - P1}.
Checksum::Checksum() : lanes_{kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1} {}

void Checksum::update(std::span<const std::byte> bytes) {
  if (bytes.empty()) return;  // data() may be null; memcpy must not see it
  const std::byte* p = bytes.data();
  std::size_t n = bytes.size();
  total_ += n;
  if (buffered_ != 0) {
    // Top up the partial stripe; small writes (the write_pod headers of a
    // serialized stream) end here.
    const std::size_t fill = std::min(n, kStripe - buffered_);
    std::memcpy(buf_ + buffered_, p, fill);
    buffered_ += fill;
    if (buffered_ < kStripe) return;
    consume_stripes(lanes_, buf_, 1);
    p += fill;
    n -= fill;
  }
  consume_stripes(lanes_, p, n / kStripe);
  p += n - n % kStripe;
  buffered_ = n % kStripe;
  if (buffered_ != 0) std::memcpy(buf_, p, buffered_);
}

std::uint64_t Checksum::value() const {
  std::uint64_t acc = kPrime5;  // seed + P5: no whole stripe was read
  if (total_ >= kStripe) {
    const auto [v1, v2, v3, v4] = lanes_;
    acc = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
          std::rotl(v4, 18);
    acc = merge(merge(merge(merge(acc, v1), v2), v3), v4);
  }
  acc += total_;
  // The remaining total_ % 32 bytes, in 8-, 4- and 1-byte steps.
  const std::byte* p = buf_;
  const std::byte* end = buf_ + buffered_;
  for (; end - p >= 8; p += 8) {
    acc ^= lane_round(0, read_le<std::uint64_t>(p));
    acc = std::rotl(acc, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    acc ^= std::uint64_t{read_le<std::uint32_t>(p)} * kPrime1;
    acc = std::rotl(acc, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p != end; ++p) {
    acc ^= std::to_integer<std::uint64_t>(*p) * kPrime5;
    acc = std::rotl(acc, 11) * kPrime1;
  }
  // Avalanche.
  acc ^= acc >> 33;
  acc *= kPrime2;
  acc ^= acc >> 29;
  acc *= kPrime3;
  acc ^= acc >> 32;
  return acc;
}

std::uint64_t checksum(std::span<const std::byte> bytes) {
  Checksum c;
  c.update(bytes);
  return c.value();
}

std::uint64_t slice_checksum(std::span<const std::byte> bytes,
                             const BlockRunner& run) {
  const std::size_t n =
      (bytes.size() + kSliceBlockBytes - 1) / kSliceBlockBytes;
  std::vector<std::uint64_t> digests(n);
  auto hash_blocks = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      digests[b] = checksum(bytes.subspan(
          b * kSliceBlockBytes,
          std::min(kSliceBlockBytes, bytes.size() - b * kSliceBlockBytes)));
    }
  };
  if (run && n > 1) {
    run(n, hash_blocks);
  } else {
    hash_blocks(0, n);
  }
  return checksum(std::as_bytes(std::span<const std::uint64_t>(digests)));
}

}  // namespace triolet::serial
