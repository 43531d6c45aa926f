// Tests for the resident-data layer (slice caching + rescatter
// avoidance): DistArray/DistContext identity and versioning, the SliceCache
// itself (LRU order, byte budgets, version retirement, sender-model
// equivalence), decoded sources sharing the cache's buffer, the rejection
// of malformed resident headers, the token scatter protocol end to end on
// rank threads, the checksum-mismatch fetch fallback, multi-block slices
// validated on the node's pool, the check of fetched bytes against their
// token, and the kOrdered bitwise-identity guarantee residency must
// preserve.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "core/triolet.hpp"
#include "dist/dist_array.hpp"
#include "dist/skeletons.hpp"
#include "net/cluster.hpp"
#include "net/residency.hpp"
#include "support/rng.hpp"

namespace triolet_residency_test {

struct Weights {
  std::vector<double> w;
  bool operator==(const Weights&) const = default;
};
TRIOLET_SERIALIZE_FIELDS(Weights, w)

}  // namespace triolet_residency_test

namespace triolet::dist {
namespace {

using core::from_array;
using core::index_t;
using core::map;
using triolet_residency_test::Weights;

/// Overrides the process-global slice-cache budget for one test, restoring
/// "read the env" on destruction so tests stay order-independent.
struct BudgetGuard {
  explicit BudgetGuard(std::size_t bytes) {
    net::set_slice_cache_budget(bytes);
  }
  ~BudgetGuard() { net::set_slice_cache_budget(~std::size_t{0}); }
};

Array1<double> random_array(index_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Array1<double> a(n);
  for (index_t i = 0; i < n; ++i) a[i] = rng.uniform(-1.0, 1.0);
  return a;
}

double sequential_sum(const Array1<double>& xs) {
  double s = 0;
  for (index_t i = 0; i < xs.size(); ++i) s += xs[i];
  return s;
}

// -- SliceCache unit ---------------------------------------------------------

TEST(SliceCache, LookupTouchesAndEvictionIsLru) {
  net::ResidencyStats st;
  net::SliceCache c(100, &st);
  const std::vector<std::byte> blob(40, std::byte{1});
  const serial::SliceKey a{1, 1, 0, 40}, b{2, 1, 0, 40}, d{3, 1, 0, 40};
  c.insert(a, blob);
  c.insert(b, blob);
  EXPECT_EQ(c.bytes_held(), 80u);
  EXPECT_NE(c.lookup(a), nullptr);  // touch: b becomes least-recently-used
  c.insert(d, blob);                // 120 > 100: evict b, not a
  EXPECT_NE(c.lookup(a), nullptr);
  EXPECT_EQ(c.lookup(b), nullptr);
  EXPECT_NE(c.lookup(d), nullptr);
  EXPECT_EQ(st.evictions, 1);
  EXPECT_EQ(c.bytes_held(), 80u);
  EXPECT_EQ(st.bytes_inserted, 120);
}

TEST(SliceCache, NewVersionRetiresOlderSlicesOfSameSource) {
  net::SliceCache c(1000);
  const std::vector<std::byte> blob(10, std::byte{2});
  c.insert({7, 1, 0, 10}, blob);
  c.insert({7, 1, 10, 20}, blob);
  c.insert({8, 1, 0, 10}, blob);
  c.insert({7, 2, 0, 10}, blob);  // retires both v1 slices of source 7
  EXPECT_EQ(c.lookup({7, 1, 0, 10}), nullptr);
  EXPECT_EQ(c.lookup({7, 1, 10, 20}), nullptr);
  EXPECT_NE(c.lookup({8, 1, 0, 10}), nullptr);
  EXPECT_NE(c.lookup({7, 2, 0, 10}), nullptr);
  EXPECT_EQ(c.entries(), 2u);
  EXPECT_EQ(c.bytes_held(), 20u);
}

TEST(SliceCache, SenderModelTracksReceiverThroughEvictions) {
  // The protocol's core invariant: insert_meta (model) and insert (receiver)
  // apply identical retirement/eviction sequences, so the key sets agree.
  net::ResidencyStats st;
  net::SliceCache recv(64, &st);
  net::SliceCache model(64, nullptr);
  const std::vector<std::byte> blob(32, std::byte{3});
  const serial::SliceKey keys[] = {
      {1, 1, 0, 32}, {1, 1, 32, 64}, {2, 1, 0, 32}, {1, 2, 0, 32}};
  for (const auto& k : keys) {
    recv.insert(k, blob);
    model.insert_meta(k, blob.size(), serial::checksum(blob));
    EXPECT_EQ(recv.entries(), model.entries());
    EXPECT_EQ(recv.bytes_held(), model.bytes_held());
  }
  for (const auto& k : keys) {
    EXPECT_EQ(recv.lookup(k) != nullptr, model.lookup(k) != nullptr);
  }
}

// -- DistArray / DistContext handles -----------------------------------------

TEST(DistArrayHandle, MutateBumpsVersionAndSlicesShareStorage) {
  Array1<double> a(100);
  for (index_t i = 0; i < 100; ++i) a[i] = static_cast<double>(i);
  DistArray<double> d(std::move(a));
  EXPECT_NE(d.id(), 0u);
  EXPECT_EQ(d.version(), 1u);
  auto s = d.source();
  auto sub = slice_source(s, core::Seq{s.lo, s.hi}, core::Seq{10, 20});
  EXPECT_EQ(sub.data.get(), s.data.get());  // zero-copy narrowing
  EXPECT_EQ(sub.lo, 10);
  EXPECT_EQ(sub.hi, 20);
  d.mutate()[5] = -1.0;
  EXPECT_EQ(d.version(), 2u);
  EXPECT_EQ(d.source().version, 2u);
}

TEST(DistArrayHandle, ResidentSourceRoundTripsWithoutScopes) {
  // With no encode/decode scope installed the codec must behave exactly
  // like a plain inline payload (back-compat for every existing call site).
  Array1<int> a(50);
  for (index_t i = 0; i < 50; ++i) a[i] = static_cast<int>(3 * i - 7);
  DistArray<int> d(std::move(a));
  auto src = d.source();
  auto bytes = serial::to_bytes(src);
  auto back = serial::from_bytes<ResidentSource<int>>(bytes);
  EXPECT_EQ(back, src);
}

TEST(DistArrayHandle, ResidencyTraitSeesResidentSources) {
  DistArray<double> d{Array1<double>(4)};
  Array1<double> plain(4);
  EXPECT_TRUE(core::iter_uses_residency_v<decltype(from_resident(d))>);
  EXPECT_FALSE(core::iter_uses_residency_v<decltype(from_array(plain))>);
  // Composite sources (here: pair of array source and resident context, as
  // built by dist::map_with) keep the trait.
  DistContext<Weights> ctx{Weights{{1.0}}};
  auto it = map_with(from_resident(d), ctx.ctx(),
                     [](const Weights& w, double x) { return w.w[0] * x; });
  EXPECT_TRUE(core::iter_uses_residency_v<decltype(it)>);
  // map() composes extractors only — the source (and the trait) survive.
  auto mapped = map(from_resident(d), [](double x) { return x + 1; });
  EXPECT_TRUE(core::iter_uses_residency_v<decltype(mapped)>);
}

// -- decoded sources share the cache's buffer --------------------------------

/// Sends `src` from this rank to itself through the real codecs: encoded
/// against the sender model for this rank (inline on a model miss, a token
/// on a hit), decoded under this rank's decode scope.
template <typename T>
ResidentSource<T> send_to_self(net::Comm& comm, const ResidentSource<T>& src) {
  std::vector<std::byte> bytes;
  {
    net::ResidencyEncodeScope enc(comm, comm.rank());
    bytes = serial::to_bytes(src);
  }
  net::ResidencyDecodeScope dec(comm, comm.rank());
  return serial::from_bytes<ResidentSource<T>>(bytes);
}

const void* cached_bytes(net::Comm& comm, const serial::SliceKey& key) {
  const auto* e = comm.residency().cache.lookup(key);
  return e != nullptr ? e->bytes.get() : nullptr;
}

TEST(ResidencySharedHit, WarmHitReturnsTheCachedBufferWithoutCopying) {
  BudgetGuard guard(std::size_t{64} << 20);
  DistArray<double> d{random_array(1000, 21)};
  const auto src = slice_source(d.source(), core::Seq{}, core::Seq{100, 900});
  const std::int64_t slice_bytes = 800 * sizeof(double);
  auto res = net::Cluster::run(1, [&](net::Comm& comm) {
    const auto& rs = comm.residency_stats();
    const auto cold = send_to_self(comm, src);
    // The inline-received slice was copied once, into the cache, and the
    // decoded source views that entry's buffer. (Asserted: without the
    // entry the token below would block on a fetch no rank answers.)
    EXPECT_EQ(rs.slices_inlined, 1);
    EXPECT_EQ(rs.bytes_inserted, slice_bytes);
    ASSERT_EQ(static_cast<const void*>(cold.data.get()),
              cached_bytes(comm, src.key()));
    EXPECT_EQ(cold, src);

    const auto warm = send_to_self(comm, src);
    EXPECT_EQ(rs.tokens_sent, 1);
    EXPECT_EQ(rs.cache_hits, 1);
    EXPECT_EQ(warm.data.get(), cold.data.get());  // the same bytes, no copy
    EXPECT_EQ(rs.bytes_inserted, slice_bytes);     // and no new entry
    EXPECT_EQ(warm, src);
  });
  ASSERT_TRUE(res.ok) << res.error;
}

TEST(ResidencySharedHit, ViewOutlivesItsEntryRetiredByMutate) {
  BudgetGuard guard(std::size_t{64} << 20);
  const auto xs = random_array(1000, 22);
  DistArray<double> d{Array1<double>(xs)};
  auto res = net::Cluster::run(1, [&](net::Comm& comm) {
    const auto v1 = send_to_self(comm, d.source());
    d.mutate()[0] += 1.0;  // version 2 retires every version-1 slice
    const auto v2 = send_to_self(comm, d.source());
    EXPECT_EQ(cached_bytes(comm, v1.key()), nullptr);
    EXPECT_EQ(comm.residency().cache.entries(), 1u);
    EXPECT_TRUE(std::ranges::equal(v1.elements(), xs.span()));
    EXPECT_EQ(v2, d.source());
  });
  ASSERT_TRUE(res.ok) << res.error;
}

TEST(ResidencySharedHit, ViewOutlivesItsEvictedEntry) {
  const index_t n = 2000;
  DistArray<double> da{random_array(n, 23)};
  DistArray<double> db{random_array(n, 24)};
  const std::size_t slice_bytes = n * sizeof(double);
  BudgetGuard guard(slice_bytes + slice_bytes / 2);  // under two slices
  auto res = net::Cluster::run(1, [&](net::Comm& comm) {
    const auto a = send_to_self(comm, da.source());
    const auto b = send_to_self(comm, db.source());  // evicts a's entry
    EXPECT_EQ(comm.residency_stats().evictions, 1);
    EXPECT_EQ(cached_bytes(comm, a.key()), nullptr);
    EXPECT_EQ(comm.residency().cache.bytes_held(), slice_bytes);
    EXPECT_EQ(a, da.source());
    EXPECT_EQ(b, db.source());
  });
  ASSERT_TRUE(res.ok) << res.error;
}

// -- malformed resident headers ----------------------------------------------

/// A decoder no malformed header may reach: if a header check were missing,
/// the death tests below would die with this message instead of theirs.
struct UnreachableDecoder final : serial::ResidencyDecoder {
  serial::SliceBuffer resolve(const serial::SliceKey&, std::uint64_t,
                              std::size_t) override {
    assert_fail("resolve", __FILE__, __LINE__, "decoder reached");
  }
  serial::SliceBuffer store(const serial::SliceKey&,
                            std::span<const std::byte>) override {
    assert_fail("store", __FILE__, __LINE__, "decoder reached");
  }
};

/// A hand-built ResidentSource header: id, version, [lo, hi) and kind,
/// then one u64 (the token when kind is 1).
std::vector<std::byte> source_header(index_t lo, index_t hi,
                                     std::uint8_t kind) {
  serial::ByteWriter w;
  w.write_pod<std::uint64_t>(1);
  w.write_pod<std::uint64_t>(1);
  w.write_pod(lo);
  w.write_pod(hi);
  w.write_pod(kind);
  w.write_pod<std::uint64_t>(0);
  return w.take();
}

TEST(ResidencyMalformedDeathTest, ReversedRangeDiesBeforeTheDecoder) {
  UnreachableDecoder dec;
  serial::ScopedResidencyDecoder scope(&dec);
  for (const std::uint8_t kind : {0, 1}) {
    EXPECT_DEATH((void)serial::from_bytes<ResidentSource<double>>(
                     source_header(10, 5, kind)),
                 "hi < lo");
  }
}

TEST(ResidencyMalformedDeathTest, OverflowingByteSizeDiesBeforeTheDecoder) {
  UnreachableDecoder dec;
  serial::ScopedResidencyDecoder scope(&dec);
  constexpr index_t kMin = std::numeric_limits<index_t>::min();
  constexpr index_t kMax = std::numeric_limits<index_t>::max();
  EXPECT_DEATH((void)serial::from_bytes<ResidentSource<double>>(
                   source_header(0, kMax, 1)),
               "byte size overflows");
  EXPECT_DEATH((void)serial::from_bytes<ResidentSource<double>>(
                   source_header(kMin, kMax, 0)),
               "byte size overflows");
}

TEST(ResidencyMalformedDeathTest, InlineContextLongerThanMessageDies) {
  UnreachableDecoder dec;
  serial::ScopedResidencyDecoder scope(&dec);
  serial::ByteWriter w;
  w.write_pod<std::uint64_t>(1);                 // id
  w.write_pod<std::uint64_t>(1);                 // version
  w.write_pod<std::uint64_t>(std::uint64_t{1} << 40);  // len
  w.write_pod<std::uint8_t>(0);                  // inline
  w.write_pod<std::uint64_t>(0);                 // 8 of the claimed bytes
  const auto bytes = w.take();
  EXPECT_DEATH((void)serial::from_bytes<ResidentCtx<Weights>>(bytes),
               "more bytes than the message holds");
}

// -- end-to-end scatter protocol ---------------------------------------------

TEST(Residency, RepeatedScatterSendsTokens) {
  const index_t n = 40000;
  auto xs = random_array(n, 11);
  const double expect = sequential_sum(xs);
  DistArray<double> d{Array1<double>(xs)};
  BudgetGuard guard(std::size_t{64} << 20);

  double r1 = 0, r2 = 0;
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    NodeRuntime node(1);
    auto make = [&] { return from_resident(d); };
    double a = sum(comm, make);
    double b = sum(comm, make);
    if (comm.rank() == 0) {
      r1 = a;
      r2 = b;
    }
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_NEAR(r1, expect, 1e-9 * std::abs(expect));
  EXPECT_EQ(r1, r2);  // same tree, same chunks: bitwise equal rounds

  const auto& rs = res.total_stats.residency;
  // Round 1 inlines one slice per worker; round 2 tokenizes all three.
  EXPECT_EQ(rs.slices_inlined, 3);
  EXPECT_EQ(rs.tokens_sent, 3);
  EXPECT_EQ(rs.cache_hits, 3);
  EXPECT_EQ(rs.cache_misses, 0);
  EXPECT_EQ(rs.checksum_failures, 0);
  EXPECT_EQ(rs.fetches, 0);
  // Each worker slice is n/4 doubles.
  EXPECT_EQ(rs.bytes_avoided, 3 * (n / 4) * static_cast<index_t>(sizeof(double)));
}

TEST(Residency, DisabledBudgetShipsEverythingInline) {
  const index_t n = 8000;
  auto xs = random_array(n, 12);
  const double expect = sequential_sum(xs);
  DistArray<double> d{Array1<double>(xs)};
  BudgetGuard guard(0);  // 0 disables the protocol entirely

  double r2 = 0;
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    NodeRuntime node(1);
    auto make = [&] { return from_resident(d); };
    (void)sum(comm, make);
    double b = sum(comm, make);
    if (comm.rank() == 0) r2 = b;
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_NEAR(r2, expect, 1e-9 * std::abs(expect));
  const auto& rs = res.total_stats.residency;
  EXPECT_EQ(rs.tokens_sent, 0);
  EXPECT_EQ(rs.slices_inlined, 0);  // codec never consulted an encoder
  EXPECT_EQ(rs.cache_hits, 0);
}

TEST(Residency, MutationInvalidatesCachedSlices) {
  const index_t n = 20000;
  auto xs = random_array(n, 13);
  DistArray<double> d{Array1<double>(xs)};
  BudgetGuard guard(std::size_t{64} << 20);

  double r1 = 0, r2 = 0;
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    NodeRuntime node(1);
    auto make = [&] { return from_resident(d); };
    double a = sum(comm, make);
    // Only rank 0 owns the handle; the bump happens after round 1's combine
    // completed, so no sends over the old version are in flight.
    if (comm.rank() == 0) d.mutate()[0] += 1.0;
    double b = sum(comm, make);
    if (comm.rank() == 0) {
      r1 = a;
      r2 = b;
    }
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_NEAR(r2 - r1, 1.0, 1e-9);

  const auto& rs = res.total_stats.residency;
  // The version bump retires every cached slice: both rounds inline.
  EXPECT_EQ(rs.slices_inlined, 6);
  EXPECT_EQ(rs.tokens_sent, 0);
  EXPECT_EQ(rs.cache_hits, 0);
}

TEST(Residency, ChecksumMismatchFallsBackToFetch) {
  const index_t n = 10000;
  auto xs = random_array(n, 14);
  const double expect = sequential_sum(xs);
  DistArray<double> d{Array1<double>(xs)};
  BudgetGuard guard(std::size_t{64} << 20);

  double r2 = 0, r3 = 0;
  auto res = net::Cluster::run(2, [&](net::Comm& comm) {
    NodeRuntime node(1);
    auto make = [&] { return from_resident(d); };
    (void)sum(comm, make);
    // Corrupt the worker's cached copy: the round-2 token must fail
    // validation and repair itself with a fetch from the root.
    if (comm.rank() == 1) {
      EXPECT_TRUE(comm.residency().cache.corrupt_one_for_testing());
    }
    double b = sum(comm, make);
    double c = sum(comm, make);  // repaired entry: plain hit again
    if (comm.rank() == 0) {
      r2 = b;
      r3 = c;
    }
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_NEAR(r2, expect, 1e-9 * std::abs(expect));
  EXPECT_EQ(r2, r3);

  const auto& rs = res.total_stats.residency;
  EXPECT_EQ(rs.slices_inlined, 1);
  EXPECT_EQ(rs.tokens_sent, 2);
  EXPECT_EQ(rs.checksum_failures, 1);
  EXPECT_EQ(rs.fetches, 1);
  EXPECT_EQ(rs.cache_hits, 1);
}

TEST(Residency, TinyBudgetEvictsThenReinlines) {
  const index_t n = 4000;  // 2 ranks -> worker slice = 2000 doubles
  auto xs = random_array(n, 15);
  auto ys = random_array(n, 16);
  DistArray<double> da{Array1<double>(xs)};
  DistArray<double> db{Array1<double>(ys)};
  const std::size_t slice_bytes = (n / 2) * sizeof(double);
  BudgetGuard guard(slice_bytes + slice_bytes / 2);  // room for one slice

  auto res = net::Cluster::run(2, [&](net::Comm& comm) {
    NodeRuntime node(1);
    auto ma = [&] { return from_resident(da); };
    auto mb = [&] { return from_resident(db); };
    (void)sum(comm, ma);  // insert a
    (void)sum(comm, mb);  // insert b, evict a
    (void)sum(comm, ma);  // miss in the model: re-inline a, evict b
    (void)sum(comm, ma);  // now resident: token
  });
  ASSERT_TRUE(res.ok) << res.error;

  const auto& rs = res.total_stats.residency;
  EXPECT_EQ(rs.slices_inlined, 3);
  EXPECT_EQ(rs.tokens_sent, 1);
  EXPECT_EQ(rs.cache_hits, 1);
  EXPECT_EQ(rs.evictions, 2);
  EXPECT_EQ(rs.fetches, 0);  // model mirrored both evictions exactly
}

// -- multi-block slices: hits validated on the node's pool --------------------

// 2 ranks over 2 * kBlockSliceElems doubles: each rank's slice is 3 blocks
// plus a short fourth, so a hit splits its checksum blocks over the pool.
constexpr index_t kBlockSliceElems =
    3 * static_cast<index_t>(serial::kSliceBlockBytes / sizeof(double)) + 5;

TEST(ResidencyBlocks, WarmMultiBlockSliceIsAHitOnTheNodePool) {
  auto xs = random_array(2 * kBlockSliceElems, 26);
  const double expect = sequential_sum(xs);
  DistArray<double> d{Array1<double>(xs)};
  BudgetGuard guard(std::size_t{64} << 20);

  double r1 = 0, r2 = 0;
  auto res = net::Cluster::run(2, [&](net::Comm& comm) {
    NodeRuntime node(2);
    auto make = [&] { return from_resident(d); };
    double a = sum(comm, make);
    double b = sum(comm, make);
    if (comm.rank() == 0) {
      r1 = a;
      r2 = b;
    }
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_NEAR(r1, expect, 1e-9 * std::abs(expect));
  EXPECT_EQ(r1, r2);

  const auto& rs = res.total_stats.residency;
  EXPECT_EQ(rs.slices_inlined, 1);
  EXPECT_EQ(rs.tokens_sent, 1);
  EXPECT_EQ(rs.cache_hits, 1);
  EXPECT_EQ(rs.cache_misses, 0);
  EXPECT_EQ(rs.checksum_failures, 0);
  EXPECT_EQ(rs.fetches, 0);
}

TEST(ResidencyBlocks, CorruptByteInTheLastBlockFallsBackToFetch) {
  auto xs = random_array(2 * kBlockSliceElems, 27);
  const double expect = sequential_sum(xs);
  DistArray<double> d{Array1<double>(xs)};
  BudgetGuard guard(std::size_t{64} << 20);
  // Three bytes before the end: inside the short fourth block.
  const std::size_t offset = kBlockSliceElems * sizeof(double) - 3;
  ASSERT_GE(offset, 3 * serial::kSliceBlockBytes);

  double r1 = 0, r2 = 0;
  auto res = net::Cluster::run(2, [&](net::Comm& comm) {
    NodeRuntime node(2);
    auto make = [&] { return from_resident(d); };
    double a = sum(comm, make);
    if (comm.rank() == 1) {
      EXPECT_TRUE(comm.residency().cache.corrupt_one_for_testing(offset));
    }
    double b = sum(comm, make);
    if (comm.rank() == 0) {
      r1 = a;
      r2 = b;
    }
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_NEAR(r2, expect, 1e-9 * std::abs(expect));
  EXPECT_EQ(r1, r2);  // the fetched slice holds the owner's values

  const auto& rs = res.total_stats.residency;
  EXPECT_EQ(rs.tokens_sent, 1);
  EXPECT_EQ(rs.checksum_failures, 1);
  EXPECT_EQ(rs.fetches, 1);
  EXPECT_EQ(rs.cache_hits, 0);
}

TEST(ResidencyFetchDeathTest, FetchedSliceThatMissesItsTokenDies) {
  // The receiver's cache is empty, so a token fetches the slice from its
  // owner; a token that matches no bytes means the owner's bytes changed
  // without a version bump, and the fetch must not be trusted.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DistArray<double> d{random_array(1000, 28)};
  const auto src = d.source();
  serial::ByteWriter w;
  w.write_pod(src.id);
  w.write_pod(src.version);
  w.write_pod(src.lo);
  w.write_pod(src.hi);
  w.write_pod<std::uint8_t>(1);  // token
  w.write_pod<std::uint64_t>(serial::slice_checksum(src.payload_bytes()) ^ 1);
  const auto header = w.take();
  constexpr int kTagDone = 7;
  EXPECT_DEATH(
      {
        (void)net::Cluster::run(2, [&](net::Comm& comm) {
          if (comm.rank() == 0) {
            // Answers the fetch from inside this blocking receive.
            net::install_residency_fetch_service(comm);
            (void)comm.recv<int>(1, kTagDone);
          } else {
            net::ResidencyDecodeScope dec(comm, /*owner=*/0);
            (void)serial::from_bytes<ResidentSource<double>>(header);
            comm.send(0, kTagDone, 1);
          }
        });
      },
      "version 1, lo 0, hi 1000\\) does not match its token");
}

// -- scheduler integration ---------------------------------------------------

TEST(ResidencySched, StaticScheduleGrantsTokenize) {
  const index_t n = 30000;
  auto xs = random_array(n, 17);
  const double expect = sequential_sum(xs);
  DistArray<double> d{Array1<double>(xs)};
  BudgetGuard guard(std::size_t{64} << 20);

  sched::SchedOptions opts;
  opts.policy = sched::SchedulePolicy::kStatic;
  double r2 = 0;
  auto res = net::Cluster::run(4, [&](net::Comm& comm) {
    NodeRuntime node(1);
    auto make = [&] { return from_resident(d); };
    (void)dist::sum(comm, make, opts);
    double b = dist::sum(comm, make, opts);
    if (comm.rank() == 0) r2 = b;
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_NEAR(r2, expect, 1e-9 * std::abs(expect));
  const auto& rs = res.total_stats.residency;
  // Static atom ranges are deterministic, so round 2 tokenizes every grant.
  EXPECT_EQ(rs.slices_inlined, 3);
  EXPECT_EQ(rs.tokens_sent, 3);
  EXPECT_EQ(rs.cache_hits, 3);
}

TEST(ResidencySched, OrderedCombineBitwiseIdenticalOnAndOff) {
  const index_t n = 30000;
  auto xs = random_array(n, 19);
  DistArray<double> d{Array1<double>(xs)};

  sched::SchedOptions opts;
  opts.policy = sched::SchedulePolicy::kGuided;
  opts.combine = sched::CombineMode::kOrdered;

  auto run_rounds = [&](std::size_t budget) {
    BudgetGuard guard(budget);
    std::array<double, 3> rounds{};
    auto res = net::Cluster::run(4, [&](net::Comm& comm) {
      NodeRuntime node(2);
      auto make = [&] {
        return map(from_resident(d), [](double x) { return x * 1.25 + 0.5; });
      };
      for (auto& r : rounds) {
        double v = dist::reduce(comm, make, 0.0,
                          [](double a, double b) { return a + b; }, opts);
        if (comm.rank() == 0) r = v;
      }
    });
    EXPECT_TRUE(res.ok) << res.error;
    return rounds;
  };

  const auto on = run_rounds(std::size_t{64} << 20);
  const auto off = run_rounds(0);
  for (std::size_t i = 0; i < on.size(); ++i) {
    std::uint64_t ba = 0, bb = 0;
    std::memcpy(&ba, &on[i], sizeof ba);
    std::memcpy(&bb, &off[i], sizeof bb);
    EXPECT_EQ(ba, bb) << "round " << i
                      << " differs bitwise with residency on vs off";
  }
}

// -- resident broadcast contexts ---------------------------------------------

TEST(ResidencyContext, UnchangedContextTokenizesUntilUpdate) {
  const index_t n = 12000;
  auto xs = random_array(n, 20);
  DistArray<double> d{Array1<double>(xs)};
  DistContext<Weights> ctx{Weights{std::vector<double>(512, 2.0)}};
  BudgetGuard guard(std::size_t{64} << 20);

  double r1 = 0, r3 = 0;
  auto res = net::Cluster::run(2, [&](net::Comm& comm) {
    NodeRuntime node(1);
    auto make = [&] {
      return map_with(from_resident(d), ctx.ctx(),
                      [](const Weights& w, double x) { return w.w[0] * x; });
    };
    double a = sum(comm, make);  // array + context both inline
    (void)sum(comm, make);       // both tokenize
    if (comm.rank() == 0) ctx.update(Weights{std::vector<double>(512, 3.0)});
    double c = sum(comm, make);  // array token, context re-inlined
    if (comm.rank() == 0) {
      r1 = a;
      r3 = c;
    }
  });
  ASSERT_TRUE(res.ok) << res.error;
  const double expect = sequential_sum(xs);
  EXPECT_NEAR(r1, 2.0 * expect, 1e-9 * std::abs(expect));
  EXPECT_NEAR(r3, 3.0 * expect, 1e-9 * std::abs(expect));

  const auto& rs = res.total_stats.residency;
  EXPECT_EQ(rs.slices_inlined, 3);  // round-1 array + ctx, round-3 ctx
  EXPECT_EQ(rs.tokens_sent, 3);     // round-2 array + ctx, round-3 array
  EXPECT_EQ(rs.cache_hits, 3);
  EXPECT_EQ(rs.fetches, 0);
}

}  // namespace
}  // namespace triolet::dist
