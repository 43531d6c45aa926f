// Tests for the lock-free messaging data plane (net/pool, net/transport,
// net/ring_transport): buffer-pool accounting, SPSC ring ordering incl. the
// overflow lane, match-table semantics (per-(src, tag) FIFO, wildcard and
// job-band windows, earliest-wins ties, purge), the eager/rendezvous
// protocol boundary, a traffic mix's literal transcript, steady-state
// allocation-free operation, and band purges racing live traffic in the
// service layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/cluster.hpp"
#include "net/pool.hpp"
#include "net/ring_transport.hpp"
#include "net/tags.hpp"
#include "net/transport.hpp"
#include "serial/serialize.hpp"
#include "svc/job_manager.hpp"

namespace triolet::net {

/// Calls SpscRing's locked pop half directly, so a test can place a
/// producer's fill-and-spill between pop()'s ring read and its lock.
struct SpscRingTestPeer {
  static bool pop_overflow(SpscRing& ring, RingDesc& out) {
    return ring.pop_overflow(out);
  }
};

namespace {

/// Full-open wildcard window for direct MatchTable probes (kAnyTag itself
/// is the *pattern* wildcard, not a window bound).
constexpr int kMaxTag = std::numeric_limits<int>::max();

// -- BufferPool ---------------------------------------------------------------

TEST(BufferPool, ClassForCoversTheSlabRange) {
  EXPECT_EQ(BufferPool::class_for(0), 0u);
  EXPECT_EQ(BufferPool::class_for(1), 0u);
  EXPECT_EQ(BufferPool::class_for(64), 0u);
  EXPECT_EQ(BufferPool::class_for(65), 1u);
  EXPECT_EQ(BufferPool::class_for(128), 1u);
  EXPECT_EQ(BufferPool::class_for(4096), 6u);
  EXPECT_EQ(BufferPool::class_for(kPoolMaxSlab), kPoolNumClasses - 1);
  EXPECT_EQ(BufferPool::class_for(kPoolMaxSlab + 1), kHeapClass);
  for (std::uint32_t c = 0; c < kPoolNumClasses; ++c) {
    EXPECT_EQ(BufferPool::class_bytes(c), std::size_t{64} << c);
    EXPECT_EQ(BufferPool::class_for(BufferPool::class_bytes(c)), c);
  }
}

TEST(BufferPool, AllocateReleaseBalancesOutstanding) {
  BufferPool& pool = BufferPool::instance();
  const std::int64_t before = pool.outstanding();
  auto a = pool.allocate(100);
  ASSERT_NE(a.p, nullptr);
  EXPECT_EQ(a.cls, 1u);  // 100 -> 128-byte class
  EXPECT_EQ(pool.outstanding(), before + 1);
  pool.release(a.p, a.cls);
  EXPECT_EQ(pool.outstanding(), before);

  // Oversized requests fall through to the heap but stay accounted.
  auto big = pool.allocate(kPoolMaxSlab + 1);
  ASSERT_NE(big.p, nullptr);
  EXPECT_EQ(big.cls, kHeapClass);
  EXPECT_EQ(pool.outstanding(), before + 1);
  pool.release(big.p, big.cls);
  EXPECT_EQ(pool.outstanding(), before);
}

TEST(BufferPool, SecondAllocationOfAClassIsACacheHit) {
  BufferPool& pool = BufferPool::instance();
  // Prime the thread cache with one slab of an uncommon class, then
  // reallocate: the second round must be served from the cache.
  auto a = pool.allocate(kPoolMaxSlab);
  pool.release(a.p, a.cls);
  auto b = pool.allocate(kPoolMaxSlab);
  EXPECT_TRUE(b.pool_hit);
  EXPECT_EQ(b.p, a.p);  // LIFO cache returns the same slab
  pool.release(b.p, b.cls);
}

// -- SpscRing -----------------------------------------------------------------

RingDesc desc_with_tag(int tag) {
  RingDesc d;
  d.src = 0;
  d.tag = tag;
  return d;
}

TEST(SpscRingTest, FifoWithinTheRing) {
  SpscRing ring;
  RingDesc out;
  EXPECT_FALSE(ring.pop(out));
  EXPECT_FALSE(ring.maybe_nonempty());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(ring.push(desc_with_tag(i)));
  EXPECT_TRUE(ring.maybe_nonempty());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out.tag, i);
  }
  EXPECT_FALSE(ring.pop(out));
}

TEST(SpscRingTest, OverflowLanePreservesOrderAndReportsStalls) {
  SpscRing ring;
  const int n = static_cast<int>(kRingSlots) + 100;
  int stalls = 0;
  for (int i = 0; i < n; ++i) {
    if (!ring.push(desc_with_tag(i))) stalls += 1;
  }
  EXPECT_EQ(stalls, 100);  // everything past the ring went to the deque
  RingDesc out;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(ring.pop(out)) << "at " << i;
    EXPECT_EQ(out.tag, i);
  }
  EXPECT_FALSE(ring.pop(out));
  EXPECT_FALSE(ring.maybe_nonempty());

  // After full drain the fast path is lock-free again.
  EXPECT_TRUE(ring.push(desc_with_tag(7)));
  ASSERT_TRUE(ring.pop(out));
  EXPECT_EQ(out.tag, 7);
}

TEST(SpscRingTest, LockedPopReadsTheRingBeforeTheOverflowLane) {
  SpscRing ring;
  RingDesc out;
  for (int i = 0; i < 3; ++i) ring.push(desc_with_tag(-1));
  while (ring.pop(out)) {
  }
  // pop() has just read the ring empty. Before it takes the overflow lock,
  // the producer fills the ring and spills one descriptor into the deque.
  const int n = static_cast<int>(kRingSlots) + 1;
  int stalls = 0;
  for (int i = 0; i < n; ++i) {
    if (!ring.push(desc_with_tag(i))) stalls += 1;
  }
  ASSERT_EQ(stalls, 1);
  // The locked half must still hand out the ring's entries first.
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(SpscRingTestPeer::pop_overflow(ring, out)) << "at " << i;
    EXPECT_EQ(out.tag, i);
  }
  EXPECT_FALSE(SpscRingTestPeer::pop_overflow(ring, out));
  EXPECT_FALSE(ring.maybe_nonempty());
}

TEST(SpscRingTest, ConcurrentProducerConsumerKeepsOrder) {
  SpscRing ring;
  const int n = 20000;
  std::thread producer([&] {
    for (int i = 0; i < n; ++i) ring.push(desc_with_tag(i));
  });
  int expected = 0;
  RingDesc out;
  while (expected < n) {
    if (ring.pop(out)) {
      ASSERT_EQ(out.tag, expected);
      expected += 1;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_FALSE(ring.maybe_nonempty());
}

// -- MatchTable ---------------------------------------------------------------

Message msg(int src, int tag) {
  Message m;
  m.src = src;
  m.tag = tag;
  return m;
}

TEST(MatchTableTest, ExactMatchIsFifoPerKey) {
  MatchTable t(4);
  t.insert(msg(1, 7));
  t.insert(msg(2, 7));
  t.insert(msg(1, 7));
  ASSERT_EQ(t.size(), 3u);

  // (1, 7) twice in arrival order, untouched by the (2, 7) entry between.
  auto* e = t.find(1, 7, 0, kMaxTag);
  ASSERT_NE(e, nullptr);
  Message first = t.take(e);
  EXPECT_EQ(first.src, 1);
  e = t.find(1, 7, 0, kMaxTag);
  ASSERT_NE(e, nullptr);
  t.take(e);
  EXPECT_EQ(t.find(1, 7, 0, kMaxTag), nullptr);
  ASSERT_NE(t.find(2, 7, 0, kMaxTag), nullptr);
}

TEST(MatchTableTest, AnySourcePicksTheEarliestAcrossBuckets) {
  MatchTable t(4);
  t.insert(msg(3, 9));
  t.insert(msg(1, 9));
  t.insert(msg(2, 8));  // different tag, never matched below
  auto* e = t.find(kAnySource, 9, 0, kMaxTag);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(t.take(e).src, 3);  // arrived first
  e = t.find(kAnySource, 9, 0, kMaxTag);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(t.take(e).src, 1);
  EXPECT_EQ(t.find(kAnySource, 9, 0, kMaxTag), nullptr);
  EXPECT_EQ(t.size(), 1u);
}

TEST(MatchTableTest, AnyTagHonorsTheWildcardWindow) {
  MatchTable t(2);
  t.insert(msg(0, 5));
  t.insert(msg(0, 50));
  t.insert(msg(0, 500));
  // Window [10, 100) sees only tag 50.
  auto* e = t.find(0, kAnyTag, 10, 100);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(t.take(e).tag, 50);
  EXPECT_EQ(t.find(0, kAnyTag, 10, 100), nullptr);
  // The others remain for a full-range wildcard, earliest first.
  e = t.find(kAnySource, kAnyTag, 0, kMaxTag);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(t.take(e).tag, 5);

  // A job band's window: an any-source wildcard sees the band's first and
  // last tag and neither neighbor.
  const int base = job_band_base(0);
  const int end = base + kJobBandWidth;
  for (int tag : {base - 1, base, end - 1, end}) t.insert(msg(1, tag));
  for (int tag : {base, end - 1}) {
    e = t.find(kAnySource, kAnyTag, base, end);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(t.take(e).tag, tag);
  }
  EXPECT_EQ(t.find(kAnySource, kAnyTag, base, end), nullptr);
  // Out-of-band traffic is still there for an unwindowed wildcard.
  for (int tag : {500, base - 1, end}) {
    e = t.find(kAnySource, kAnyTag, 0, kMaxTag);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(t.take(e).tag, tag);
  }
  EXPECT_TRUE(t.empty());
}

TEST(MatchTableTest, FindAnyTieGoesToTheLowestPatternIndex) {
  MatchTable t(2);
  t.insert(msg(0, 3));
  const std::pair<int, int> patterns[] = {{kAnySource, 3}, {0, kAnyTag}};
  std::size_t which = 99;
  auto* e = t.find_any(patterns, which, 0, kMaxTag);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(which, 0u);  // both match the same entry; lowest index wins

  // With an earlier message only the second pattern matches, earliest wins
  // over pattern order.
  t.insert(msg(0, 4));
  auto* first = t.find(0, 3, 0, kMaxTag);
  t.take(first);
  which = 99;
  e = t.find_any(patterns, which, 0, kMaxTag);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(which, 1u);
  EXPECT_EQ(e->msg.tag, 4);
}

TEST(MatchTableTest, PurgeRangeDropsExactlyTheWindow) {
  MatchTable t(2);
  for (int i = 0; i < 10; ++i) t.insert(msg(0, i));
  EXPECT_EQ(t.purge_range(3, 7), 4u);
  EXPECT_EQ(t.size(), 6u);
  for (int i : {3, 4, 5, 6}) EXPECT_EQ(t.find(0, i, 0, kMaxTag), nullptr);
  for (int i : {0, 1, 2, 7, 8, 9}) {
    EXPECT_NE(t.find(0, i, 0, kMaxTag), nullptr) << i;
  }

  // A job band: the purge drops its first and last tag, keeps both
  // neighbors, and leaves the earlier traffic alone.
  const int base = job_band_base(1);
  const int end = base + kJobBandWidth;
  for (int tag : {base - 1, base, end - 1, end}) t.insert(msg(1, tag));
  EXPECT_EQ(t.purge_range(base, end), 2u);
  EXPECT_EQ(t.size(), 8u);
  for (int tag : {base - 1, end}) {
    auto* e = t.find(kAnySource, kAnyTag, base - 1, end + 1);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(t.take(e).tag, tag);
  }
  EXPECT_EQ(t.find(kAnySource, kAnyTag, base - 1, end + 1), nullptr);
}

TEST(MatchTableTest, SurvivesRehashUnderManyDistinctKeys) {
  MatchTable t(1);
  const int n = 500;  // far past the initial 64-slot table
  for (int i = 0; i < n; ++i) t.insert(msg(0, i));
  EXPECT_EQ(t.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto* e = t.find(0, i, 0, kMaxTag);
    ASSERT_NE(e, nullptr) << i;
    EXPECT_EQ(t.take(e).tag, i);
  }
  EXPECT_TRUE(t.empty());
}

// -- eager / rendezvous boundary ----------------------------------------------

TEST(EagerRendezvous, BoundarySizesRoundTripAndAreClassifiedRight) {
  TransportOptions opts;
  opts.eager_bytes = 64;
  auto res = Cluster::run(2, [&](Comm& c) {
    // Exactly 0, threshold, and threshold + 1 raw bytes.
    for (std::size_t n : {std::size_t{0}, std::size_t{64}, std::size_t{65}}) {
      if (c.rank() == 0) {
        std::vector<std::byte> payload(n);
        for (std::size_t i = 0; i < n; ++i) {
          payload[i] = static_cast<std::byte>(i * 3 + 1);
        }
        c.send_bytes(1, 5, std::move(payload));
      } else {
        Message m = c.recv_message(0, 5);
        ASSERT_EQ(m.payload.size(), n);
        auto view = m.payload.span();
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(view[i], static_cast<std::byte>(i * 3 + 1));
        }
      }
    }
  }, opts);
  ASSERT_TRUE(res.ok) << res.error;
  // 0-byte and threshold-sized payloads took the eager path; threshold + 1
  // crossed into rendezvous.
  EXPECT_EQ(res.total_stats.msg.eager_msgs, 2);
  EXPECT_EQ(res.total_stats.msg.rendezvous_msgs, 1);
  EXPECT_EQ(res.total_stats.messages_received, 3);
}

TEST(EagerRendezvous, ZeroThresholdForcesRendezvousForAllNonEmpty) {
  TransportOptions opts;
  opts.eager_bytes = 0;
  auto res = Cluster::run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 9, std::string("hello rendezvous"));
    } else {
      EXPECT_EQ(c.recv<std::string>(0, 9), "hello rendezvous");
    }
  }, opts);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.total_stats.msg.eager_msgs, 0);
  EXPECT_EQ(res.total_stats.msg.rendezvous_msgs, 1);
}

// -- traffic-mix transcript ---------------------------------------------------

TEST(TransportTranscript, TrafficMixMatchesItsLiteralTranscript) {
  // One deterministic traffic mix (directed tags, a wildcard-source tag)
  // against its literal transcript.
  std::vector<std::string> transcript;
  auto res = Cluster::run(4, [&](Comm& c) {
    if (c.rank() != 0) {
      for (int i = 0; i < 5; ++i) {
        c.send(0, 10 + c.rank(), c.rank() * 100 + i);  // directed
      }
      c.send(0, 7, c.rank());  // wildcard-source tag
      return;
    }
    // Directed receives: per-(src, tag) FIFO means this order is total.
    for (int r = 1; r < 4; ++r) {
      for (int i = 0; i < 5; ++i) {
        // Built by appending: GCC 12 at -O3 reports a false -Wrestrict on
        // "literal" + std::string&&.
        std::string entry = "d";
        entry += std::to_string(r);
        entry += ':';
        entry += std::to_string(c.recv<int>(r, 10 + r));
        transcript.push_back(std::move(entry));
      }
    }
    // Wildcard source: arrival order varies, so record the sorted set.
    std::vector<int> wild;
    for (int r = 1; r < 4; ++r) wild.push_back(c.recv<int>(kAnySource, 7));
    std::sort(wild.begin(), wild.end());
    for (int v : wild) {
      std::string entry = "w";
      entry += std::to_string(v);
      transcript.push_back(std::move(entry));
    }
  });
  ASSERT_TRUE(res.ok) << res.error;
  const std::vector<std::string> expected = {
      "d1:100", "d1:101", "d1:102", "d1:103", "d1:104",
      "d2:200", "d2:201", "d2:202", "d2:203", "d2:204",
      "d3:300", "d3:301", "d3:302", "d3:303", "d3:304",
      "w1",     "w2",     "w3"};
  EXPECT_EQ(transcript, expected);
}

// -- steady-state allocation behavior -----------------------------------------

TEST(SteadyState, PoolMissesGoFlatAfterWarmup) {
  // The zero-allocation claim: once thread caches and freelists are primed,
  // the eager data path allocates nothing — every slab is a pool hit. Run a
  // ping-pong long enough to warm up, snapshot, then assert the miss
  // counter never moves again.
  std::atomic<std::int64_t> misses_after_warmup{-1};
  std::atomic<std::int64_t> misses_final{-1};
  auto res = Cluster::run(2, [&](Comm& c) {
    const int peer = 1 - c.rank();
    std::vector<std::byte> ball(512);
    auto ping_pong = [&](int rounds) {
      for (int i = 0; i < rounds; ++i) {
        if (c.rank() == 0) {
          c.send_bytes(peer, 3, ball);
          ball = std::move(c.recv_message(peer, 3).payload).take_vector();
        } else {
          ball = std::move(c.recv_message(peer, 3).payload).take_vector();
          c.send_bytes(peer, 3, ball);
        }
      }
    };
    ping_pong(100);  // warmup: caches, freelists, central depot
    c.barrier();
    if (c.rank() == 0) {
      misses_after_warmup.store(c.snapshot_stats().msg.pool_misses);
    }
    ping_pong(400);
    c.barrier();
    if (c.rank() == 0) {
      misses_final.store(c.snapshot_stats().msg.pool_misses);
    }
  });
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_GE(misses_after_warmup.load(), 0);
  EXPECT_EQ(misses_final.load(), misses_after_warmup.load())
      << "steady-state sends still miss the buffer pool";
  // And the traffic really ran on the pooled eager path.
  EXPECT_GT(res.total_stats.msg.pool_hits, 0);
}

TEST(SteadyState, ClusterTeardownReturnsEveryPooledBuffer) {
  const std::int64_t before = BufferPool::instance().outstanding();
  auto res = Cluster::run(3, [](Comm& c) {
    // Leave stranded traffic behind on purpose: these are never received.
    if (c.rank() != 0) c.send(0, 99, std::vector<double>(1000, 1.0));
    c.barrier();
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(BufferPool::instance().outstanding(), before)
      << "transport teardown leaked pooled buffers";
}

// -- band purge under live neighbor traffic -----------------------------------

TEST(BandPurge, PurgeRacesLiveTrafficInNeighborBandsSafely) {
  // Several short-lived failing jobs (their bands are purged on teardown,
  // sweeping in-flight ring descriptors) while a long-running job keeps the
  // transport busy with collectives. The live job must finish correctly and
  // nothing may leak from the purged bands.
  const std::int64_t before = BufferPool::instance().outstanding();
  {
    svc::ServiceOptions so;
    so.nranks = 2;
    so.max_concurrent = 2;
    svc::JobManager mgr(so);

    std::atomic<bool> stop{false};
    svc::JobHandle live = mgr.submit({"live"}, [&](svc::JobContext& ctx) {
      int spins = 0;
      while (true) {
        const int sum = ctx.comm().allreduce(
            ctx.rank() + 1, [](int a, int b) { return a + b; });
        EXPECT_EQ(sum, 3);
        spins += 1;
        // Agree collectively on when to stop: deciding from the local flag
        // alone would let one rank leave while its peer blocks in the next
        // allreduce.
        const int done = ctx.comm().allreduce(
            stop.load() && spins >= 5 ? 1 : 0,
            [](int a, int b) { return a < b ? a : b; });
        if (done) break;
      }
    });

    for (int j = 0; j < 6; ++j) {
      svc::JobHandle bad = mgr.submit({"bad"}, [](svc::JobContext& ctx) {
        // Strand traffic in the band: unreceived sends in both directions,
        // above and below the eager threshold, then fail on one rank.
        const int peer = 1 - ctx.rank();
        ctx.comm().send(peer, 50, std::vector<char>(16, 'x'));
        ctx.comm().send(peer, 51, std::vector<double>(4096, 2.0));
        ctx.comm().barrier();
        if (ctx.rank() == 1) throw std::runtime_error("purge fodder");
        (void)ctx.comm().recv<int>(peer, 60);  // never sent; abort wakes it
      });
      EXPECT_FALSE(bad.wait().ok);
    }
    stop.store(true);
    EXPECT_TRUE(live.wait().ok);
    mgr.drain();
    EXPECT_EQ(mgr.stats().failed, 6);
  }
  EXPECT_EQ(BufferPool::instance().outstanding(), before)
      << "band purges leaked in-flight pooled buffers";
}

}  // namespace
}  // namespace triolet::net
