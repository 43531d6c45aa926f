// Tests for the message-passing substrate: point-to-point semantics,
// wildcard matching, collectives, failure propagation (bounded buffers,
// aborts), checksums, traffic accounting, and the stats structs' generated
// arithmetic and serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <thread>
#include <type_traits>
#include <utility>

#include "net/cluster.hpp"
#include "serial/serialize.hpp"

namespace triolet::net {
namespace {

TEST(Cluster, SingleRankRuns) {
  std::atomic<int> ran{0};
  auto res = Cluster::run(1, [&](Comm& c) {
    EXPECT_EQ(c.rank(), 0);
    EXPECT_EQ(c.size(), 1);
    ran.fetch_add(1);
  });
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(ran.load(), 1);
}

TEST(Cluster, PointToPointDeliversTypedValues) {
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 5, std::vector<int>{1, 2, 3});
    } else {
      auto v = c.recv<std::vector<int>>(0, 5);
      EXPECT_EQ(v, (std::vector<int>{1, 2, 3}));
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Cluster, TagMatchingIsSelective) {
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, /*tag=*/7, 70);
      c.send(1, /*tag=*/8, 80);
    } else {
      // Receive out of arrival order by tag.
      EXPECT_EQ(c.recv<int>(0, 8), 80);
      EXPECT_EQ(c.recv<int>(0, 7), 70);
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Cluster, SameTagIsFifoPerPair) {
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 20; ++i) c.send(1, 3, i);
    } else {
      for (int i = 0; i < 20; ++i) EXPECT_EQ(c.recv<int>(0, 3), i);
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Cluster, AnySourceWildcardReceivesFromAll) {
  auto res = Cluster::run(4, [](Comm& c) {
    if (c.rank() == 0) {
      std::multiset<int> got;
      for (int i = 0; i < 3; ++i) {
        got.insert(c.recv<int>(kAnySource, 1));
      }
      EXPECT_EQ(got, (std::multiset<int>{10, 20, 30}));
    } else {
      c.send(0, 1, c.rank() * 10);
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Cluster, BarrierSynchronizesPhases) {
  // Every rank increments a phase counter, barriers, then checks that all
  // increments of the previous phase are visible.
  std::atomic<int> counter{0};
  const int ranks = 4;
  auto res = Cluster::run(ranks, [&](Comm& c) {
    for (int phase = 1; phase <= 3; ++phase) {
      counter.fetch_add(1);
      c.barrier();
      EXPECT_GE(counter.load(), phase * ranks);
      c.barrier();
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Cluster, BroadcastReachesAllRanks) {
  auto res = Cluster::run(4, [](Comm& c) {
    std::vector<double> v;
    if (c.rank() == 0) v = {1.5, 2.5, 3.5};
    c.broadcast(v, 0);
    EXPECT_EQ(v, (std::vector<double>{1.5, 2.5, 3.5}));
  });
  EXPECT_TRUE(res.ok);
}

TEST(Cluster, GatherCollectsByRank) {
  auto res = Cluster::run(4, [](Comm& c) {
    auto all = c.gather(c.rank() * 2, 0);
    if (c.rank() == 0) {
      EXPECT_EQ(all, (std::vector<int>{0, 2, 4, 6}));
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Cluster, ScatterHandsOutPerRankItems) {
  auto res = Cluster::run(3, [](Comm& c) {
    std::vector<std::string> items;
    if (c.rank() == 0) items = {"a", "b", "c"};
    auto mine = c.scatter(items, 0);
    std::string expect(1, static_cast<char>('a' + c.rank()));
    EXPECT_EQ(mine, expect);
  });
  EXPECT_TRUE(res.ok);
}

TEST(Cluster, ReduceFoldsInRankOrder) {
  auto res = Cluster::run(4, [](Comm& c) {
    // Non-commutative (but associative) op: string concatenation exposes
    // ordering. The fixed-tree combine keeps rank order for associative
    // ops; only the parenthesization differs from a linear fold.
    std::string mine(1, static_cast<char>('A' + c.rank()));
    auto r = c.reduce(mine, [](std::string a, std::string b) { return a + b; }, 0);
    if (c.rank() == 0) {
      EXPECT_EQ(r, "ABCD");
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Cluster, AllreduceGivesEveryRankTheTotal) {
  auto res = Cluster::run(4, [](Comm& c) {
    auto total =
        c.allreduce(c.rank() + 1, [](int a, int b) { return a + b; });
    EXPECT_EQ(total, 10);
  });
  EXPECT_TRUE(res.ok);
}

TEST(Cluster, BoundedBufferRejectsOversizedMessage) {
  // Models Eden's failure on sgemm: "the array data is too large for Eden's
  // message-passing runtime to buffer" (paper §4.3).
  TransportOptions opts;
  opts.max_message_bytes = 64;
  auto res = Cluster::run(
      2,
      [](Comm& c) {
        if (c.rank() == 0) {
          c.send(1, 1, std::vector<double>(1000, 1.0));
        } else {
          (void)c.recv<std::vector<double>>(0, 1);
        }
      },
      opts);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("buffer"), std::string::npos);
}

TEST(Cluster, RejectedSendIsNotCounted) {
  // A send the transport refuses never left the rank: none of the send
  // counters may charge it.
  TransportOptions opts;
  opts.max_message_bytes = 64;
  bool rejected = false;
  auto res = Cluster::run(
      2,
      [&](Comm& c) {
        if (c.rank() != 0) return;
        try {
          c.send(1, 1, std::vector<double>(1000, 1.0));
        } catch (const BufferOverflow&) {
          rejected = true;
        }
      },
      opts);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(rejected);
  EXPECT_EQ(res.total_stats.messages_sent, 0);
  EXPECT_EQ(res.total_stats.bytes_sent, 0);
  EXPECT_EQ(res.total_stats.bytes_zero_copy, 0);
  EXPECT_EQ(res.total_stats.bytes_copied, 0);
}

TEST(Cluster, PeerFailureUnblocksWaitingRanks) {
  auto res = Cluster::run(3, [](Comm& c) {
    if (c.rank() == 1) {
      throw std::runtime_error("rank 1 exploded");
    }
    if (c.rank() == 2) {
      // Blocks forever unless the abort wakes it.
      (void)c.recv<int>(1, 9);
    }
  });
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error, "rank 1 exploded");
}

TEST(Cluster, StatsCountMessagesAndBytes) {
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 1, std::vector<std::int32_t>(100, 7));
    } else {
      (void)c.recv<std::vector<std::int32_t>>(0, 1);
    }
  });
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.total_stats.messages_sent, 1);
  EXPECT_EQ(res.total_stats.messages_received, 1);
  // 8-byte length header + 400 payload bytes.
  EXPECT_EQ(res.total_stats.bytes_sent, 408);
  EXPECT_EQ(res.total_stats.bytes_received, 408);
}

TEST(Transport, InterruptAllWakesABlockedRingReceiver) {
  // Lost-wakeup regression: a ring endpoint parked in pop_match must
  // observe abort_all() promptly no matter where it is in its spin/park
  // sequence. A notify that lands between the waiter's flag check and its
  // wait would block it forever, so iterating the handshake makes a
  // regression hang here (and the CI TSan job flags an unsynchronized
  // notify directly).
  for (int iter = 0; iter < 50; ++iter) {
    ClusterState state(1, TransportOptions{});
    std::thread waiter([&] {
      Comm comm(0, &state);
      EXPECT_THROW((void)comm.recv<int>(kAnySource, 1), ClusterAborted);
    });
    state.abort_all();
    waiter.join();
  }
}

// -- wildcard interleavings under concurrent senders --------------------------
//
// The demand-driven scheduler's service loop polls try_recv(kAnySource) on
// one tag while many ranks send concurrently; these tests pin down the
// exact semantics that loop relies on.

TEST(ClusterWildcards, AnySourceTryRecvDrainsAllConcurrentSenders) {
  const int p = 6;
  auto res = Cluster::run(p, [&](Comm& c) {
    if (c.rank() != 0) {
      c.send(0, 7, c.rank());
      return;
    }
    // Poll until every sender's message has been observed; a try_recv miss
    // is not a failure, just "not yet".
    std::map<int, int> seen;
    while (seen.size() < static_cast<std::size_t>(p - 1)) {
      if (auto m = c.try_recv_message(kAnySource, 7)) {
        int v = serial::from_bytes<int>(m->payload);
        EXPECT_EQ(v, m->src);  // envelope src matches the payload
        EXPECT_EQ(seen.count(m->src), 0u) << "duplicate from " << m->src;
        seen[m->src] = v;
      }
    }
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(ClusterWildcards, AnySourceBlockingRecvInterleavesWithSpecificTag) {
  // Mixing a wildcard service tag with a directed data tag: wildcard recv
  // on tag A must never swallow messages on tag B.
  const int p = 4;
  auto res = Cluster::run(p, [&](Comm& c) {
    if (c.rank() != 0) {
      c.send(0, 1, c.rank() * 10);  // data tag
      c.send(0, 2, c.rank());      // service tag
      return;
    }
    std::vector<int> service;
    for (int i = 0; i < p - 1; ++i) {
      Message m = c.recv_message(kAnySource, 2);
      service.push_back(serial::from_bytes<int>(m.payload));
    }
    // All data-tag messages are still there, matchable by (src, tag).
    for (int r = 1; r < p; ++r) {
      EXPECT_EQ(c.recv<int>(r, 1), r * 10);
    }
    std::sort(service.begin(), service.end());
    EXPECT_EQ(service, (std::vector<int>{1, 2, 3}));
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(ClusterWildcards, AnyTagPreservesPerSenderFifo) {
  // kAnyTag from a fixed src must deliver that sender's messages in send
  // order even when tags differ.
  auto res = Cluster::run(2, [&](Comm& c) {
    if (c.rank() == 1) {
      for (int i = 0; i < 20; ++i) c.send(0, 100 + (i % 3), i);
      return;
    }
    for (int i = 0; i < 20; ++i) {
      Message m = c.recv_message(1, kAnyTag);
      EXPECT_EQ(serial::from_bytes<int>(m.payload), i);
      EXPECT_EQ(m.tag, 100 + (i % 3));
    }
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(ClusterWildcards, RequestGrantProtocolUnderContention) {
  // The scheduler idiom end to end: every worker loops request -> grant on
  // the reserved scheduler tag band until the root says done; the root
  // serves with try_recv polling. All work items are handed out exactly
  // once no matter how requests interleave.
  const int p = 5;
  const int items = 57;
  std::atomic<int> executed{0};
  auto res = Cluster::run(p, [&](Comm& c) {
    if (c.rank() == 0) {
      int next = 0;
      int done_sent = 0;
      while (done_sent < p - 1) {
        if (auto req = c.try_recv_message(kAnySource, kTagSchedRequest)) {
          if (next < items) {
            c.send(req->src, kTagSchedGrant, next++);
          } else {
            c.send(req->src, kTagSchedGrant, -1);
            ++done_sent;
          }
        }
      }
      return;
    }
    std::vector<int> got;
    while (true) {
      c.send(0, kTagSchedRequest, std::uint8_t{0});
      int item = c.recv<int>(0, kTagSchedGrant);
      if (item < 0) break;
      got.push_back(item);
    }
    // No duplicates within one worker; cross-worker disjointness follows
    // from the total count below.
    std::sort(got.begin(), got.end());
    EXPECT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end());
    executed += static_cast<int>(got.size());
  });
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_EQ(executed.load(), items);
}

TEST(ClusterWildcards, SchedTagBandIsDisjointFromCollectives) {
  // A pending (unconsumed-until-later) scheduler request must not disturb
  // a collective running concurrently on the reserved collective band.
  const int p = 4;
  auto res = Cluster::run(p, [&](Comm& c) {
    if (c.rank() != 0) c.send(0, kTagSchedRequest, std::uint8_t{0});
    auto total = c.allreduce(1, [](int a, int b) { return a + b; });
    EXPECT_EQ(total, p);
    if (c.rank() == 0) {
      for (int i = 0; i < p - 1; ++i) {
        (void)c.recv_message(kAnySource, kTagSchedRequest);
      }
    }
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(ClusterWildcards, ResidencyTagBandIsRegisteredAndDisjoint) {
  bool found = false;
  for (const auto& b : reserved_tag_bands()) {
    if (b.lo == kTagResidencyBand) {
      found = true;
      EXPECT_EQ(b.hi, kTagResidencyBandEnd);
    }
  }
  EXPECT_TRUE(found) << "residency band missing from reserved_tag_bands()";
  EXPECT_GE(kTagResidentFetch, kTagResidencyBand);
  EXPECT_LT(kTagResidentData, kTagResidencyBandEnd);
  assert_tag_bands_disjoint();  // aborts on overlap
}

TEST(ClusterWildcards, ServiceDispatchRunsInsideBlockingRecv) {
  // A (kAnySource, tag) service handler must run while the owning rank is
  // blocked in an unrelated receive — the deadlock-freedom property the
  // residency fetch protocol relies on (the root serves fetches while
  // blocked in its own collectives/receives).
  const int p = 3;
  auto res = Cluster::run(p, [&](Comm& c) {
    if (c.rank() == 0) {
      int served = 0;
      c.set_service(kTagResidentFetch, [&](Message& m) {
        const auto who = serial::from_bytes<std::uint8_t>(m.payload);
        c.send(m.src, kTagResidentData, static_cast<int>(100 + who));
        ++served;
      });
      // Each worker signals on tag 7 only after its fetch was answered, so
      // both services have run by the time both signals arrive.
      for (int i = 0; i < p - 1; ++i) {
        auto m = c.recv_message(kAnySource, 7);
        EXPECT_EQ(serial::from_bytes<int>(m.payload), 42);
      }
      EXPECT_EQ(served, p - 1);
      c.clear_service(kTagResidentFetch);
    } else {
      c.send(0, kTagResidentFetch, static_cast<std::uint8_t>(c.rank()));
      EXPECT_EQ(c.recv<int>(0, kTagResidentData), 100 + c.rank());
      c.send(0, 7, 42);
    }
  });
  EXPECT_TRUE(res.ok) << res.error;
}

TEST(ClusterWildcards, WildcardRecvDoesNotStealServiceMessages) {
  // Per-pair FIFO puts the service message ahead of the user message in
  // rank 0's queue; a fully wildcard receive must still dispatch it to the
  // handler and return the user message.
  auto res = Cluster::run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      int served = 0;
      c.set_service(kTagResidentFetch, [&](Message&) { ++served; });
      Message m = c.recv_message(kAnySource, kAnyTag);
      EXPECT_EQ(m.tag, 7);
      EXPECT_EQ(serial::from_bytes<int>(m.payload), 42);
      EXPECT_EQ(served, 1);
      c.clear_service(kTagResidentFetch);
    } else {
      c.send(0, kTagResidentFetch, std::uint8_t{1});
      c.send(0, 7, 42);
    }
  });
  EXPECT_TRUE(res.ok) << res.error;
}

// Parameterized: collectives agree with a serial reference at many widths.
class ClusterWidth : public ::testing::TestWithParam<int> {};

TEST_P(ClusterWidth, AllreduceSumMatchesFormula) {
  const int p = GetParam();
  auto res = Cluster::run(p, [&](Comm& c) {
    auto total = c.allreduce(static_cast<std::int64_t>(c.rank()),
                             [](std::int64_t a, std::int64_t b) { return a + b; });
    EXPECT_EQ(total, static_cast<std::int64_t>(p) * (p - 1) / 2);
  });
  EXPECT_TRUE(res.ok);
}

TEST_P(ClusterWidth, RingPassesTokenAround) {
  const int p = GetParam();
  if (p < 2) GTEST_SKIP() << "ring needs >= 2 ranks";
  auto res = Cluster::run(p, [&](Comm& c) {
    int r = c.rank();
    if (r == 0) {
      c.send(1 % p, 0, 1);
      int token = c.recv<int>(p - 1, 0);
      EXPECT_EQ(token, p);
    } else {
      int token = c.recv<int>(r - 1, 0);
      c.send((r + 1) % p, 0, token + 1);
    }
  });
  EXPECT_TRUE(res.ok);
}

INSTANTIATE_TEST_SUITE_P(Widths, ClusterWidth, ::testing::Values(1, 2, 3, 5, 8));

// -- stats field lists --------------------------------------------------------

/// Sets the k-th field of `v` (visitor order; nested stats and array
/// elements flattened) to gen(k).
template <typename T, typename Gen>
void fill_fields(T& v, int& k, const Gen& gen) {
  if constexpr (std::is_arithmetic_v<T>) {
    v = static_cast<T>(gen(k++));
  } else if constexpr (serial::has_fields<T>::value) {
    triolet_visit_fields(v, [&](auto&... f) { (fill_fields(f, k, gen), ...); });
  } else {
    for (auto& e : v) fill_fields(e, k, gen);
  }
}

template <typename T>
class StatsFields : public ::testing::Test {};
using StatsTypes =
    ::testing::Types<CollectiveStats, SchedStats, runtime::PoolStats,
                     ResidencyStats, ViewStats, MsgStats, CommStats>;
TYPED_TEST_SUITE(StatsFields, StatsTypes);

TYPED_TEST(StatsFields, ArithmeticAndSerialRoundTripEveryField) {
  using T = TypeParam;
  auto filled = [](auto gen) {
    T v{};
    int k = 0;
    fill_fields(v, k, gen);
    return v;
  };
  const auto bytes = [](const T& v) { return serial::to_bytes(v); };
  // Distinct small integers, exact in every field type.
  const T a = filled([](int k) { return k + 1; });
  const T b = filled([](int k) { return 1000 + 3 * k; });
  EXPECT_NE(bytes(a), bytes(T{}));
  // Every field combines with its own counterpart, and only with it.
  EXPECT_EQ(bytes(a + b), bytes(filled([](int k) { return 1001 + 4 * k; })));
  EXPECT_EQ(bytes(a - b), bytes(filled([](int k) { return -999 - 2 * k; })));
  EXPECT_EQ(bytes((a + b) - b), bytes(a));
  EXPECT_EQ(bytes(serial::from_bytes<T>(bytes(a))), bytes(a));
}

}  // namespace
}  // namespace triolet::net
