// Unit and property tests for the serialization framework (src/serial):
// round-trips for every supported shape, the block-copy fast path, wire-size
// accounting, checksums, and failure modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/consume.hpp"
#include "core/domains.hpp"
#include "dist/dist_array.hpp"
#include "dist/segmented.hpp"
#include "dist/views.hpp"
#include "runtime/parallel.hpp"
#include "serial/checksum.hpp"
#include "serial/serialize.hpp"
#include "support/rng.hpp"

namespace triolet_serial_test {

struct Particle {
  double x, y, z;
  float charge;
  bool operator==(const Particle&) const = default;
};

struct Nested {
  std::string name;
  std::vector<double> samples;
  std::optional<int> tag;
  bool operator==(const Nested&) const = default;
};
TRIOLET_SERIALIZE_FIELDS(Nested, name, samples, tag)

}  // namespace triolet_serial_test

namespace triolet::serial {
namespace {

using triolet_serial_test::Nested;
using triolet_serial_test::Particle;

template <typename T>
void expect_roundtrip(const T& v) {
  auto bytes = to_bytes(v);
  T back = from_bytes<T>(bytes);
  EXPECT_EQ(back, v);
}

TEST(Serialize, RoundTripsPods) {
  expect_roundtrip(42);
  expect_roundtrip(-17LL);
  expect_roundtrip(3.14159);
  expect_roundtrip(2.5f);
  expect_roundtrip(true);
  expect_roundtrip('x');
}

TEST(Serialize, RoundTripsPodStruct) {
  expect_roundtrip(Particle{1.0, -2.0, 3.0, 0.5f});
}

TEST(Serialize, RoundTripsVectors) {
  expect_roundtrip(std::vector<int>{});
  expect_roundtrip(std::vector<int>{1, 2, 3});
  expect_roundtrip(std::vector<double>{1.5, -2.5});
  expect_roundtrip(std::vector<Particle>{{1, 2, 3, 4}, {5, 6, 7, 8}});
}

TEST(Serialize, RoundTripsNestedVectors) {
  expect_roundtrip(std::vector<std::vector<int>>{{1}, {}, {2, 3}});
}

TEST(Serialize, RoundTripsStrings) {
  expect_roundtrip(std::string{});
  expect_roundtrip(std::string{"hello world"});
  expect_roundtrip(std::string(10000, 'q'));
}

TEST(Serialize, RoundTripsPairsAndTuples) {
  expect_roundtrip(std::pair<std::string, int>{"k", 9});
  expect_roundtrip(std::tuple<int, std::string, double>{1, "two", 3.0});
}

TEST(Serialize, RoundTripsOptionals) {
  expect_roundtrip(std::optional<int>{});
  expect_roundtrip(std::optional<int>{5});
  expect_roundtrip(std::optional<std::string>{"text"});
}

TEST(Serialize, RoundTripsFieldAdaptedStructs) {
  expect_roundtrip(Nested{"run-1", {0.5, 1.5}, 7});
  expect_roundtrip(Nested{"", {}, std::nullopt});
}

TEST(Serialize, PodVectorUsesBlockCopyLayout) {
  // length header (8 bytes) + raw payload: the fast path adds no per-element
  // framing, which is what makes array serialization a single memcpy.
  std::vector<float> v(1000, 1.0f);
  EXPECT_EQ(wire_size(v), sizeof(std::uint64_t) + v.size() * sizeof(float));
}

TEST(Serialize, WireSizeMatchesBytesProduced) {
  Nested n{"abc", {1, 2, 3}, 4};
  EXPECT_EQ(wire_size(n), to_bytes(n).size());
}

TEST(Serialize, TrailingBytesAreRejected) {
  auto bytes = to_bytes(7);
  bytes.push_back(std::byte{0});
  EXPECT_DEATH((void)from_bytes<int>(bytes), "trailing bytes");
}

TEST(Serialize, TruncatedBufferIsRejected) {
  auto bytes = to_bytes(std::vector<int>{1, 2, 3});
  bytes.resize(bytes.size() - 1);
  EXPECT_DEATH((void)from_bytes<std::vector<int>>(bytes), "past end");
}

TEST(ByteReader, ViewRawBorrowsWithoutCopy) {
  std::vector<std::byte> buf(16, std::byte{0xAB});
  ByteReader r(buf);
  auto s = r.view_raw(8);
  EXPECT_EQ(s.data(), buf.data());
  EXPECT_EQ(r.remaining(), 8u);
}

TEST(ByteReader, BorrowPastEndIsRejectedBeforeAdvancing) {
  std::vector<std::byte> buf(8, std::byte{1});
  ByteReader r(buf);
  EXPECT_DEATH((void)r.borrow(9), "borrow past end");
}

TEST(ByteReader, BorrowBoundsCheckSurvivesOverflowingLength) {
  // A hostile length header near SIZE_MAX must not wrap the bounds check.
  std::vector<std::byte> buf(8, std::byte{1});
  ByteReader r(buf);
  (void)r.borrow(4);
  EXPECT_DEATH((void)r.borrow(static_cast<std::size_t>(-3)), "borrow past end");
}

#ifndef NDEBUG
TEST(ByteReader, RetiredSentinelAbortsLaterBorrows) {
  std::vector<std::byte> buf(16, std::byte{7});
  auto sentinel = std::make_shared<BorrowSentinel>();
  ByteReader r(buf);
  r.set_sentinel(sentinel);
  (void)r.borrow(4);  // fine while the payload owner is alive
  sentinel->retire();
  EXPECT_DEATH((void)r.borrow(4), "retired payload");
}
#endif

// -- edge cases of the wire format -------------------------------------------

TEST(SerializeEdge, EmptyVectorsRoundTrip) {
  expect_roundtrip(std::vector<double>{});
  expect_roundtrip(std::vector<std::string>{});
  expect_roundtrip(std::vector<std::vector<int>>{});
  expect_roundtrip(std::string{});
}

TEST(SerializeEdge, NestedVectorOfVectorsRoundTrips) {
  // Inner vectors straddle the borrow threshold, so a segmented writer mixes
  // copied and borrowed segments within one value.
  std::vector<std::vector<double>> v;
  v.push_back({});                              // empty inner
  v.push_back(std::vector<double>(3, 1.5));     // below threshold
  v.push_back(std::vector<double>(1000, -2.0)); // above threshold
  expect_roundtrip(v);
  auto sg = to_segments(v);
  EXPECT_EQ(sg.gather(), to_bytes(v));
  EXPECT_GT(sg.bytes_borrowed(), 0u);
}

TEST(SerializeEdge, OptionalOfArraysRoundTrips) {
  expect_roundtrip(std::optional<std::array<double, 4>>{});
  expect_roundtrip(std::optional<std::array<double, 4>>{{1.0, 2.0, 3.0, 4.0}});
  expect_roundtrip(std::optional<std::vector<double>>{});
  expect_roundtrip(
      std::optional<std::vector<double>>{std::vector<double>(500, 0.25)});
}

TEST(SerializeEdge, BorrowThresholdBoundaryRoundTripsAndChecksums) {
  // Payload spans of exactly threshold-1 / threshold / threshold+1 bytes:
  // the first is copied, the others borrowed — all must round-trip and
  // produce identical bytes (and checksums) on both paths.
  for (std::size_t n : {kBorrowThresholdBytes - 1, kBorrowThresholdBytes,
                        kBorrowThresholdBytes + 1}) {
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<std::uint8_t>(i * 31 + 7);
    }
    expect_roundtrip(v);
    auto flat = to_bytes(v);
    auto sg = to_segments(v);
    EXPECT_EQ(sg.size(), flat.size());
    EXPECT_EQ(sg.bytes_borrowed(), n < kBorrowThresholdBytes ? 0u : n);
    EXPECT_EQ(sg.gather(), flat);
    EXPECT_EQ(checksum(sg.gather()), checksum(flat));
  }
}

TEST(SerializeEdge, TakeFlatStealsFullyCopiedStreams) {
  std::vector<std::uint8_t> small(16, 9);
  auto sg = to_segments(small);
  EXPECT_EQ(sg.bytes_borrowed(), 0u);
  std::vector<std::byte> out;
  EXPECT_TRUE(sg.take_flat(out));
  EXPECT_EQ(out, to_bytes(small));

  std::vector<std::uint8_t> big(4096, 3);
  auto sg2 = to_segments(big);
  EXPECT_GT(sg2.bytes_borrowed(), 0u);
  std::vector<std::byte> out2;
  EXPECT_FALSE(sg2.take_flat(out2));  // borrowed segments cannot be stolen
  EXPECT_EQ(sg2.gather(), to_bytes(big));
}

TEST(Checksum, IsStableAndSensitive) {
  auto a = to_bytes(std::vector<int>{1, 2, 3});
  auto b = to_bytes(std::vector<int>{1, 2, 3});
  auto c = to_bytes(std::vector<int>{1, 2, 4});
  EXPECT_EQ(checksum(a), checksum(b));
  EXPECT_NE(checksum(a), checksum(c));
}

TEST(Checksum, EmptyPayloadHasFixedValue) {
  EXPECT_EQ(checksum({}), 0xEF46DB3751D8E999ull);
  // The empty stream's stamp is that same value, however it is produced.
  EXPECT_EQ(Checksum().value(), checksum({}));
  EXPECT_EQ(SegmentedBytes().stream_checksum(), checksum({}));
  EXPECT_EQ(ByteWriter::segmented().take_segments().stream_checksum(),
            checksum({}));
}

TEST(Checksum, AccumulateComposesWithOneShot) {
  auto bytes = to_bytes(std::vector<int>{1, 2, 3, 4, 5});
  const std::span<const std::byte> all(bytes);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, bytes.size() / 2,
                            bytes.size()}) {
    Checksum c;
    c.update(all.subspan(0, split));
    c.update(all.subspan(split));
    EXPECT_EQ(c.value(), checksum(all));
  }
}

std::span<const std::byte> as_byte_span(std::string_view s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}

/// `n` bytes of a fixed pseudo-random pattern.
std::vector<std::byte> pattern_bytes(std::size_t n) {
  Xoshiro256 rng(42);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.below(256));
  return v;
}

TEST(Checksum, KnownAnswersMatchXxh64Seed0) {
  EXPECT_EQ(checksum(as_byte_span("")), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(checksum(as_byte_span("a")), 0xD24EC4F1A98C6E5Bull);
  EXPECT_EQ(checksum(as_byte_span("abc")), 0x44BC2CF5AD770999ull);
  EXPECT_EQ(checksum(as_byte_span("Nobody inspects the spammish repetition")),
            0xFBCEA83C8A378BF1ull);
}

TEST(Checksum, StreamingEqualsOneShotAtEverySplit) {
  // Lengths 0-130 cross the 32-byte stripe and the 8-, 4- and 1-byte tail
  // steps; every two-way split must agree with the one-shot value.
  const auto data = pattern_bytes(130);
  for (std::size_t n = 0; n <= data.size(); ++n) {
    const std::span<const std::byte> all(data.data(), n);
    const std::uint64_t want = checksum(all);
    for (std::size_t split = 0; split <= n; ++split) {
      Checksum c;
      c.update(all.subspan(0, split));
      c.update(all.subspan(split));
      EXPECT_EQ(c.value(), want) << "n=" << n << " split=" << split;
    }
  }
  // Every three-way split of a few lengths around stripe boundaries, with a
  // value() read mid-stream that must not disturb the state.
  for (std::size_t n : {31, 32, 33, 63, 64, 65, 100, 130}) {
    const std::span<const std::byte> all(data.data(), n);
    const std::uint64_t want = checksum(all);
    for (std::size_t i = 0; i <= n; ++i) {
      for (std::size_t j = i; j <= n; ++j) {
        Checksum c;
        c.update(all.subspan(0, i));
        c.update(all.subspan(i, j - i));
        (void)c.value();
        c.update(all.subspan(j));
        EXPECT_EQ(c.value(), want) << "n=" << n << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(Checksum, FlippingAnySingleByteChangesTheValue) {
  auto small = pattern_bytes(1024);
  const std::uint64_t small_base = checksum(small);
  for (std::size_t i = 0; i < small.size(); ++i) {
    for (std::byte mask : {std::byte{0x01}, std::byte{0x80}}) {
      small[i] ^= mask;
      EXPECT_NE(checksum(small), small_base) << "i=" << i;
      small[i] ^= mask;
    }
  }
  // (1 MiB + 13) bytes: a 13-byte tail takes the 8-, 4- and 1-byte steps.
  // Every byte of the first and last two stripes and of the tail, plus a
  // stride through the middle that visits every lane offset.
  auto big = pattern_bytes((std::size_t{1} << 20) + 13);
  const std::uint64_t big_base = checksum(big);
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < 64; ++i) at.push_back(i);
  for (std::size_t i = 64; i < big.size() - 77; i += 4099) at.push_back(i);
  for (std::size_t i = big.size() - 77; i < big.size(); ++i) at.push_back(i);
  for (std::size_t i : at) {
    big[i] ^= std::byte{0x01};
    EXPECT_NE(checksum(big), big_base) << "i=" << i;
    big[i] ^= std::byte{0x01};
  }
}

TEST(Checksum, SwappingWordsInDifferentLanesChangesTheValue) {
  // Eight distinct 8-byte words: two stripes, word w feeds lane w % 4.
  std::vector<std::uint64_t> words{1, 2, 3, 4, 5, 6, 7, 8};
  const auto bytes = [&] {
    return std::as_bytes(std::span<const std::uint64_t>(words));
  };
  const std::uint64_t base = checksum(bytes());
  for (std::size_t a = 0; a < words.size(); ++a) {
    for (std::size_t b = a + 1; b < words.size(); ++b) {
      if (a % 4 == b % 4) continue;
      std::swap(words[a], words[b]);
      EXPECT_NE(checksum(bytes()), base) << "a=" << a << " b=" << b;
      std::swap(words[a], words[b]);
    }
  }
}

/// slice_checksum by hand: the XXH64 digest of every kSliceBlockBytes
/// block, then XXH64 over the digests.
std::uint64_t slice_checksum_by_hand(std::span<const std::byte> bytes) {
  std::vector<std::uint64_t> digests;
  for (std::size_t at = 0; at < bytes.size(); at += kSliceBlockBytes) {
    digests.push_back(checksum(
        bytes.subspan(at, std::min(kSliceBlockBytes, bytes.size() - at))));
  }
  return checksum(std::as_bytes(std::span<const std::uint64_t>(digests)));
}

TEST(SliceChecksum, EqualsXxh64OverBlockDigests) {
  constexpr std::size_t kB = kSliceBlockBytes;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kB - 1, kB,
                              kB + 1, 3 * kB + 5}) {
    const auto bytes = pattern_bytes(n);
    EXPECT_EQ(slice_checksum(bytes), slice_checksum_by_hand(bytes))
        << "n=" << n;
  }
}

TEST(SliceChecksum, PooledRunnerEqualsInOrderRunner) {
  runtime::ThreadPool pool(3);
  std::atomic<int> pooled_calls{0};
  const BlockRunner pooled = [&](std::size_t n, const auto& body) {
    runtime::parallel_for(pool, 0, static_cast<runtime::index_t>(n), 1,
                          [&](runtime::index_t lo, runtime::index_t hi) {
                            pooled_calls.fetch_add(1);
                            body(static_cast<std::size_t>(lo),
                                 static_cast<std::size_t>(hi));
                          });
  };
  const BlockRunner in_order = [](std::size_t n, const auto& body) {
    body(0, n);
  };
  const BlockRunner reversed = [](std::size_t n, const auto& body) {
    for (std::size_t b = n; b-- > 0;) body(b, b + 1);
  };
  for (const std::size_t n : {kSliceBlockBytes + 1, 3 * kSliceBlockBytes + 5,
                              10 * kSliceBlockBytes}) {
    const auto bytes = pattern_bytes(n);
    const std::uint64_t want = slice_checksum(bytes, in_order);
    EXPECT_EQ(slice_checksum(bytes, pooled), want) << "n=" << n;
    EXPECT_EQ(slice_checksum(bytes, reversed), want) << "n=" << n;
    EXPECT_EQ(slice_checksum(bytes), want) << "n=" << n;
  }
  EXPECT_GT(pooled_calls.load(), 0);
}

TEST(Checksum, StreamChecksumCoversBorrowedSegments) {
  std::vector<std::uint8_t> big(4096, 1);
  auto sg = to_segments(big);
  EXPECT_GT(sg.bytes_borrowed(), 0u);
  // The write-time stream checksum equals a post-hoc checksum of the
  // gathered stream...
  EXPECT_EQ(sg.stream_checksum(), checksum(sg.gather()));
  // ...and keeps describing the bytes *as serialized* when a borrowed span
  // is mutated between serialization and gather. A post-gather checksum
  // would self-consistently cover the corrupted bytes and pass; the stream
  // checksum is what lets the receiver detect the violation.
  big[100] ^= 0xff;
  EXPECT_NE(sg.stream_checksum(), checksum(sg.gather()));
  big[100] ^= 0xff;
  EXPECT_EQ(sg.stream_checksum(), checksum(sg.gather()));
}

TEST(Checksum, StreamChecksumMatchesFlatPathForCopiedStreams) {
  // Below the borrow threshold everything is copied, and both serialization
  // paths must agree on the stream bytes and their checksum.
  std::vector<std::uint8_t> small(64, 7);
  auto sg = to_segments(small);
  EXPECT_EQ(sg.bytes_borrowed(), 0u);
  EXPECT_EQ(sg.stream_checksum(), checksum(to_bytes(small)));
}

// -- segmented domains and view descriptors ----------------------------------
//
// The SegSeq codec ships only the visible cut window of a sliced domain and
// rebases the reader to [0, units); view iterators (zip-of-slice trees over
// resident leaves) must round-trip without any residency scope installed —
// the inline fallback is the cold-start wire format.

TEST(SegSeqCodec, SlicedWindowShipsOnlyVisibleCutsAndRebases) {
  auto cuts = std::make_shared<const std::vector<triolet::index_t>>(
      std::vector<triolet::index_t>{0, 3, 4, 9, 10});
  auto weights = std::make_shared<const std::vector<triolet::index_t>>(
      std::vector<triolet::index_t>{30, 2, 51, 7});
  triolet::core::SegSeq full{0, 4, cuts, weights};
  auto window = triolet::core::outer_slice(full, 1, 3);  // units [1, 3)
  auto back = from_bytes<triolet::core::SegSeq>(to_bytes(window));
  // Rebased unit window over reconstructed vectors, same global segments.
  EXPECT_EQ(back.u0, 0);
  EXPECT_EQ(back.u1, 2);
  EXPECT_EQ(back, window);
  EXPECT_EQ(back.seg_lo(), 3);
  EXPECT_EQ(back.seg_hi(), 9);
  ASSERT_TRUE(back.weights);
  EXPECT_EQ((*back.weights)[0], 2);
  EXPECT_EQ((*back.weights)[1], 51);
  // The window's wire image carries 3 cuts, not all 5.
  EXPECT_LT(to_bytes(window).size(), to_bytes(full).size());
}

TEST(SegSeqCodec, AbsentWeightsAndEmptyWindowRoundTrip) {
  auto cuts = std::make_shared<const std::vector<triolet::index_t>>(
      std::vector<triolet::index_t>{2, 5});
  triolet::core::SegSeq d{0, 1, cuts, nullptr};
  auto back = from_bytes<triolet::core::SegSeq>(to_bytes(d));
  EXPECT_EQ(back, d);
  EXPECT_FALSE(back.weights);
  // Degenerate empty unit window (u0 == u1) survives the trip.
  triolet::core::SegSeq empty{1, 1, cuts, nullptr};
  auto eback = from_bytes<triolet::core::SegSeq>(to_bytes(empty));
  EXPECT_EQ(eback.units(), 0);
  EXPECT_EQ(eback.size(), 0);
}

TEST(ViewDescriptors, NestedZipOfSliceRoundTripsInline) {
  const triolet::index_t n = 300;
  Array1<double> av(n), bv(2 * n);
  for (triolet::index_t i = 0; i < n; ++i) av[i] = 0.25 * double(i);
  for (triolet::index_t i = 0; i < 2 * n; ++i) bv[i] = 1.0 / double(i + 1);
  triolet::dist::DistArray<double> da{std::move(av)};
  triolet::dist::DistArray<double> db{std::move(bv)};
  auto it = triolet::dist::zip(da, triolet::dist::slice(db, 0, n));
  using It = std::remove_cvref_t<decltype(it)>;
  // No ResidencyEncodeScope installed: both leaves inline their bytes.
  auto back = from_bytes<It>(to_bytes(it));
  auto dot = [](const auto& v) {
    double acc = 0.0;
    triolet::core::visit(v, [&](const std::pair<double, double>& p) {
      acc += p.first * p.second;
    });
    return acc;
  };
  const double want = dot(it);
  const double got = dot(back);
  EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0);
  // A slice of the decoded view still addresses global indices.
  const double wa = dot(it.slice(triolet::core::Seq{100, 200}));
  const double wb = dot(back.slice(triolet::core::Seq{100, 200}));
  EXPECT_EQ(std::memcmp(&wa, &wb, sizeof(double)), 0);
}

TEST(ViewDescriptors, SegmentedLeavesBorrowAndChecksumCoversThem) {
  // A segmented source large enough that the values leaf crosses the borrow
  // threshold: its bytes ride as borrowed segments, and the stream checksum
  // must cover them (mutating the borrowed array must be detected).
  std::vector<triolet::index_t> offsets{0};
  std::vector<double> values;
  for (int s = 0; s < 64; ++s) {
    for (int k = 0; k < 8; ++k) values.push_back(double(s * 8 + k));
    offsets.push_back(static_cast<triolet::index_t>(values.size()));
  }
  triolet::dist::SegmentedDistArray<double> a(offsets, values);
  auto sg = to_segments(a.source());
  EXPECT_GT(sg.bytes_borrowed(), 0u);
  EXPECT_EQ(sg.stream_checksum(), checksum(sg.gather()));
  a.mutate_values()[10] += 1.0;
  EXPECT_NE(sg.stream_checksum(), checksum(sg.gather()));
  a.mutate_values()[10] -= 1.0;
  EXPECT_EQ(sg.stream_checksum(), checksum(sg.gather()));
}

// Property sweep: random vectors of random sizes round-trip exactly.
class SerializeProperty : public ::testing::TestWithParam<int> {};

TEST_P(SerializeProperty, RandomDoubleVectorsRoundTrip) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> v(rng.below(2000));
  for (auto& x : v) x = rng.uniform(-1e9, 1e9);
  expect_roundtrip(v);
}

TEST_P(SerializeProperty, RandomNestedStructsRoundTrip) {
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  Nested n;
  n.name = std::string(rng.below(64), 'a' + static_cast<char>(rng.below(26)));
  n.samples.resize(rng.below(100));
  for (auto& s : n.samples) s = rng.uniform();
  if (rng.below(2)) n.tag = static_cast<int>(rng.below(1000));
  expect_roundtrip(n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeProperty, ::testing::Range(0, 12));

}  // namespace
}  // namespace triolet::serial
