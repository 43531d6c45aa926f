// Tests for posted receives and send semantics: irecv handles,
// wait_any/wait_all, sends that finish on the calling rank thread (buffer
// reuse, errors at the call site), the zero-copy send accounting, and the
// reserved tag-band audit.

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

TEST(Async, SenderBufferReusableImmediatelyAfterSend) {
  // 2,000 doubles are borrowed into the payload and take the rendezvous
  // path, so send() must finish its gather before it returns: the caller
  // overwrites its vector before the receiver even starts to receive.
  auto res = Cluster::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> buf(2000, 1.0);
      c.send(1, 7, buf);
      std::fill(buf.begin(), buf.end(), -9.0);
      c.barrier();
    } else {
      c.barrier();
      auto v = c.recv<std::vector<double>>(0, 7);
      EXPECT_EQ(v.size(), 2000u);
      EXPECT_TRUE(std::all_of(v.begin(), v.end(),
                              [](double x) { return x == 1.0; }));
    }
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.total_stats.bytes_zero_copy, 16000);
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
      c.send(0, 9, c.rank());
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

TEST(Async, SendThrowsDeliveryErrorAtTheCallSite) {
  // A payload past the bounded buffer fails inside send() on the rank
  // thread, so the rank body can catch it where it sent.
  TransportOptions opts;
  opts.max_message_bytes = 64;
  std::atomic<bool> threw{false};
  auto res = Cluster::run(
      2,
      [&](Comm& c) {
        if (c.rank() == 0) {
          try {
            c.send(1, 1, std::vector<double>(1000, 1.0));
          } catch (const BufferOverflow&) {
            threw.store(true);
          }
        }
      },
      opts);
  EXPECT_TRUE(res.ok);  // the error was caught and handled by the rank body
  EXPECT_TRUE(threw.load());
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
  EXPECT_GE(kTagResidencyBand, kUserTagLimit);
  EXPECT_GE(kFirstReservedTag, kUserTagLimit);
}

}  // namespace
}  // namespace triolet::net
