// Tests for asynchronous messaging: isend/irecv handles, wait_any/wait_all,
// progress-engine ordering and error deferral, abort cancellation, the
// zero-copy send accounting, and the reserved tag-band audit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "net/cluster.hpp"
#include "net/tags.hpp"

namespace triolet::net {
namespace {

TEST(Async, IsendDeliversTypedValues) {
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      PendingSend s = c.isend(1, 5, std::vector<int>{1, 2, 3});
      s.wait();
    } else {
      auto v = c.recv<std::vector<int>>(0, 5);
      EXPECT_EQ(v, (std::vector<int>{1, 2, 3}));
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Async, SenderBufferReusableImmediatelyAfterIsend) {
  // isend takes the value by value: mutating the caller's vector after the
  // call must not affect what the receiver sees.
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> buf(2000, 1.0);
      PendingSend s = c.isend(1, 7, buf);
      std::fill(buf.begin(), buf.end(), -9.0);  // engine owns its own copy
      s.wait();
    } else {
      auto v = c.recv<std::vector<double>>(0, 7);
      EXPECT_EQ(v.size(), 2000u);
      EXPECT_TRUE(std::all_of(v.begin(), v.end(),
                              [](double x) { return x == 1.0; }));
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Async, FifoOrderPreservedBetweenIsends) {
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 50; ++i) (void)c.isend(1, 3, i);
    } else {
      for (int i = 0; i < 50; ++i) EXPECT_EQ(c.recv<int>(0, 3), i);
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Async, BlockingSendNeverOvertakesQueuedIsends) {
  // A blocking send flushes the progress engine first, so the sync message
  // arrives strictly after every isend posted before it.
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 20; ++i) (void)c.isend(1, 3, i);
      c.send(1, 3, 99);
    } else {
      for (int i = 0; i < 20; ++i) EXPECT_EQ(c.recv<int>(0, 3), i);
      EXPECT_EQ(c.recv<int>(0, 3), 99);
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Async, IrecvWaitAndTest) {
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 11, 42);
    } else {
      PendingRecv r = c.irecv(0, 11);
      EXPECT_EQ(r.get<int>(), 42);
      EXPECT_TRUE(r.completed());
      // Completion is sticky.
      EXPECT_TRUE(r.test());
      EXPECT_EQ(r.message().src, 0);
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Async, WaitAnyReturnsWhicheverArrives) {
  auto res = Cluster::run(3, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<PendingRecv> recvs;
      recvs.push_back(c.irecv(1, 21));
      recvs.push_back(c.irecv(2, 22));
      const std::size_t first = wait_any(recvs);
      ASSERT_LT(first, 2u);
      EXPECT_TRUE(recvs[first].completed());
      EXPECT_EQ(serial::from_bytes<int>(recvs[first].message().payload),
                first == 0 ? 100 : 200);
      // An already-completed handle wins immediately on the next call.
      EXPECT_EQ(wait_any(recvs), first);
      // The loser is still pending and completes normally.
      const std::size_t other = 1 - first;
      EXPECT_FALSE(recvs[other].completed());
      EXPECT_EQ(serial::from_bytes<int>(recvs[other].wait().payload),
                other == 0 ? 100 : 200);
    } else {
      c.send(0, 20 + c.rank(), c.rank() * 100);
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Async, WaitAllCompletesEveryHandle) {
  auto res = Cluster::run(4, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<PendingRecv> recvs;
      for (int r = 1; r < 4; ++r) recvs.push_back(c.irecv(r, 9));
      wait_all(recvs);
      int sum = 0;
      for (auto& r : recvs) {
        sum += serial::from_bytes<int>(r.message().payload);
      }
      EXPECT_EQ(sum, 1 + 2 + 3);
    } else {
      (void)c.isend(0, 9, c.rank()).wait();
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Async, LargeArraysTravelZeroCopy) {
  // A send dominated by one large trivially-copyable array should be
  // accounted almost entirely as zero-copy bytes.
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 4, std::vector<double>(100000, 0.5));
    } else {
      auto v = c.recv<std::vector<double>>(0, 4);
      EXPECT_EQ(v.size(), 100000u);
    }
  });
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.total_stats.bytes_zero_copy, 800000);
  EXPECT_EQ(res.total_stats.bytes_zero_copy + res.total_stats.bytes_copied,
            res.total_stats.bytes_sent);
}

TEST(Async, SmallMessagesStayOnTheCopiedPath) {
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 4, std::vector<int>{1, 2, 3});
    } else {
      (void)c.recv<std::vector<int>>(0, 4);
    }
  });
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.total_stats.bytes_zero_copy, 0);
  EXPECT_EQ(res.total_stats.bytes_copied, res.total_stats.bytes_sent);
}

TEST(Async, DetachedIsendErrorSurfacesAtFlush) {
  // Fire-and-forget isend into a bounded buffer: the handle is dropped,
  // but Cluster::run flushes the engine at body end and the rank fails.
  ClusterOptions opts;
  opts.max_message_bytes = 64;
  auto res = Cluster::run(
      2,
      [](Comm& c) {
        if (c.rank() == 0) {
          (void)c.isend(1, 1, std::vector<double>(1000, 1.0));
        } else {
          // Do not block on the oversized message; the abort releases us if
          // we are still waiting when rank 0's flush fails.
          (void)c.try_recv<std::vector<double>>(0, 1);
        }
      },
      opts);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("buffer"), std::string::npos);
}

TEST(Async, HandleDroppedAfterCompletionSurfacesAtFlush) {
  // The handle is still held when its isend fails (flush_async drains the
  // engine first), then goes out of scope unobserved: dropping it defers the
  // error to Cluster::run's final flush, and the rank fails.
  ClusterOptions opts;
  opts.max_message_bytes = 64;
  auto res = Cluster::run(
      2,
      [](Comm& c) {
        if (c.rank() == 0) {
          PendingSend s = c.isend(1, 1, std::vector<double>(1000, 1.0));
          c.flush_async();
        }
      },
      opts);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("buffer"), std::string::npos);
}

TEST(Async, PendingSendWaitRethrowsDeliveryError) {
  ClusterOptions opts;
  opts.max_message_bytes = 64;
  std::atomic<bool> threw{false};
  auto res = Cluster::run(
      2,
      [&](Comm& c) {
        if (c.rank() == 0) {
          PendingSend s = c.isend(1, 1, std::vector<double>(1000, 1.0));
          try {
            s.wait();
          } catch (const BufferOverflow&) {
            threw.store(true);
          }
        }
      },
      opts);
  EXPECT_TRUE(res.ok);  // the error was caught and handled by the rank body
  EXPECT_TRUE(threw.load());
}

TEST(Async, AbortCancelsQueuedOperations) {
  // Rank 1 dies; rank 0's queued isends to it are cancelled rather than
  // delivered, and the cluster reports the root cause.
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      // Block until the abort: the peer never sends.
      try {
        (void)c.recv<int>(1, 1);
      } catch (const ClusterAborted&) {
        for (int i = 0; i < 4; ++i) (void)c.isend(1, 2, i);
        throw;
      }
    } else {
      throw std::runtime_error("rank 1 exploded");
    }
  });
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error, "rank 1 exploded");
}

TEST(Async, IrecvUnblocksOnPeerFailure) {
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      PendingRecv r = c.irecv(1, 1);
      EXPECT_THROW((void)r.wait(), ClusterAborted);
    } else {
      throw std::runtime_error("peer died");
    }
  });
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.error, "peer died");
}

// -- tag band audit -----------------------------------------------------------

TEST(TagBands, ReservedBandsAreDisjoint) {
  std::string why;
  EXPECT_TRUE(tag_bands_disjoint(reserved_tag_bands(), &why)) << why;
}

TEST(TagBands, OverlapIsDetected) {
  const TagBand bands[] = {
      {"a", 0, 100},
      {"b", 50, 150},
  };
  std::string why;
  EXPECT_FALSE(tag_bands_disjoint(bands, &why));
  EXPECT_NE(why.find("overlap"), std::string::npos);
  EXPECT_NE(why.find("'a'"), std::string::npos);
  EXPECT_NE(why.find("'b'"), std::string::npos);
}

TEST(TagBands, EmptyBandIsRejected) {
  const TagBand bands[] = {{"empty", 10, 10}};
  std::string why;
  EXPECT_FALSE(tag_bands_disjoint(bands, &why));
  EXPECT_NE(why.find("empty"), std::string::npos);
}

TEST(TagBands, SchedAndAsyncBandsSitAboveUserSpace) {
  EXPECT_GE(kTagSchedBand, kUserTagLimit);
  EXPECT_GE(kTagAsyncBand, kUserTagLimit);
  EXPECT_GE(kTagGroupBand, kUserTagLimit);
  EXPECT_GE(kFirstReservedTag, kUserTagLimit);
}

}  // namespace
}  // namespace triolet::net
