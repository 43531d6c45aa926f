// Tests for the Eden emulation library: boxed cons lists, chunked arrays,
// the deoptimized math path, and the flat process farm.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "eden/chunked.hpp"
#include "eden/farm.hpp"
#include "eden/list.hpp"
#include "eden/slowmath.hpp"
#include "net/cluster.hpp"

namespace triolet::eden {
namespace {

TEST(List, NilIsEmpty) {
  List<int> xs;
  EXPECT_TRUE(xs.empty());
  EXPECT_EQ(xs.length(), 0u);
}

TEST(List, ConsAndHeadTail) {
  auto xs = List<int>::cons(1, List<int>::cons(2, List<int>::nil()));
  EXPECT_EQ(xs.head(), 1);
  EXPECT_EQ(xs.tail().head(), 2);
  EXPECT_TRUE(xs.tail().tail().empty());
}

TEST(List, FromToVectorRoundTrips) {
  std::vector<int> v{5, 4, 3, 2, 1};
  EXPECT_EQ(List<int>::from_vector(v).to_vector(), v);
}

TEST(List, MapAndFilter) {
  auto xs = List<int>::from_vector({1, 2, 3, 4});
  EXPECT_EQ(xs.map([](int x) { return x * x; }).to_vector(),
            (std::vector<int>{1, 4, 9, 16}));
  EXPECT_EQ(xs.filter([](int x) { return x % 2 == 0; }).to_vector(),
            (std::vector<int>{2, 4}));
}

TEST(List, FoldlIsLeftToRight) {
  auto xs = List<std::string>::from_vector({"a", "b", "c"});
  auto s = xs.foldl([](std::string acc, const std::string& x) { return acc + x; },
                    std::string{});
  EXPECT_EQ(s, "abc");
}

TEST(List, ZipWithStopsAtShorter) {
  auto a = List<int>::from_vector({1, 2, 3});
  auto b = List<int>::from_vector({10, 20});
  EXPECT_EQ(a.zip_with(b, [](int x, int y) { return x + y; }).to_vector(),
            (std::vector<int>{11, 22}));
}

TEST(List, SumOfBoxedList) {
  auto xs = List<double>::from_vector({0.5, 1.5, 2.0});
  EXPECT_DOUBLE_EQ(list_sum(xs), 4.0);
}

TEST(List, SharedTailsSurviveOriginalDestruction) {
  List<int> tail;
  {
    auto xs = List<int>::from_vector({1, 2, 3, 4});
    tail = xs.tail();
  }
  EXPECT_EQ(tail.to_vector(), (std::vector<int>{2, 3, 4}));
}

TEST(List, LongListDestructionDoesNotOverflowStack) {
  std::vector<int> big(500000, 7);
  {
    auto xs = List<int>::from_vector(big);
    EXPECT_EQ(xs.length(), big.size());
  }  // iterative release
}

TEST(Chunked, RoundTripsAndChunks) {
  std::vector<float> v(2500, 0);
  std::iota(v.begin(), v.end(), 0.0f);
  auto c = ChunkedArray<float>::from_vector(v);
  EXPECT_EQ(c.size(), v.size());
  EXPECT_EQ(c.chunk_count(), 3u);  // 1024 + 1024 + 452
  EXPECT_EQ(c.to_vector(), v);
}

TEST(Chunked, ChunkRangeSelectsSubarrays) {
  std::vector<float> v(3000);
  std::iota(v.begin(), v.end(), 0.0f);
  auto c = ChunkedArray<float>::from_vector(v);
  auto mid = c.chunk_range(1, 2);
  EXPECT_EQ(mid.size(), 1024u);
  EXPECT_FLOAT_EQ(mid.to_vector().front(), 1024.0f);
}

TEST(Chunked, FoldlMatchesVectorSum) {
  std::vector<float> v(5000, 0.25f);
  auto c = ChunkedArray<float>::from_vector(v);
  float s = c.foldl([](float acc, float x) { return acc + x; }, 0.0f);
  EXPECT_FLOAT_EQ(s, 1250.0f);
}

TEST(Chunked, SerializesPerChunk) {
  std::vector<float> v(1500, 1.0f);
  auto c = ChunkedArray<float>::from_vector(v);
  auto back = serial::from_bytes<ChunkedArray<float>>(serial::to_bytes(c));
  EXPECT_EQ(back, c);
  // Framing: outer count + 2 chunk headers + payload.
  EXPECT_GT(serial::wire_size(c), 1500 * 4 + 16);
}

TEST(SlowMath, AgreesWithFastMathWithinFloatPrecision) {
  for (float x = -6.0f; x < 6.0f; x += 0.37f) {
    EXPECT_NEAR(eden_sinf(x), std::sin(x), 2e-6f);
    EXPECT_NEAR(eden_cosf(x), std::cos(x), 2e-6f);
  }
  for (double d = -1.0; d <= 1.0; d += 0.13) {
    EXPECT_NEAR(eden_acos(d), std::acos(d), 1e-12);
  }
}

TEST(Farm, SingleRankComputesLocally) {
  auto res = net::Cluster::run(1, [](net::Comm& c) {
    auto out = farm<int, int>(c, {1, 2, 3}, [](int x) { return x * x; });
    EXPECT_EQ(out, (std::vector<int>{1, 4, 9}));
  });
  EXPECT_TRUE(res.ok);
}

TEST(Farm, ResultsArriveInTaskOrder) {
  auto res = net::Cluster::run(4, [](net::Comm& c) {
    std::vector<int> tasks;
    if (c.rank() == 0) {
      tasks.resize(20);
      std::iota(tasks.begin(), tasks.end(), 0);
    }
    auto out = farm<int, int>(c, tasks, [](int x) { return 10 * x; });
    if (c.rank() == 0) {
      ASSERT_EQ(out.size(), 20u);
      for (int i = 0; i < 20; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], 10 * i);
    } else {
      EXPECT_TRUE(out.empty());
    }
  });
  EXPECT_TRUE(res.ok);
}

TEST(Farm, MasterTrafficIsWholeTaskData) {
  // Every task payload plus every result goes through rank 0: total traffic
  // is task bytes + result bytes, with no slicing intelligence.
  auto res = net::Cluster::run(3, [](net::Comm& c) {
    std::vector<std::vector<double>> tasks;
    if (c.rank() == 0) tasks.assign(8, std::vector<double>(1000, 1.0));
    (void)farm<std::vector<double>, double>(
        c, tasks, [](const std::vector<double>& t) {
          double s = 0;
          for (double v : t) s += v;
          return s;
        });
  });
  EXPECT_TRUE(res.ok);
  // 8 tasks x ~8008 bytes, plus terminators and 8 tiny results.
  EXPECT_GT(res.total_stats.bytes_sent, 8 * 8000);
}

TEST(Farm, BoundedBufferFailsLikeEdenSgemm) {
  net::TransportOptions opts;
  opts.max_message_bytes = 1024;
  auto res = net::Cluster::run(
      2,
      [](net::Comm& c) {
        std::vector<std::vector<double>> tasks;
        if (c.rank() == 0) tasks.assign(2, std::vector<double>(4096, 1.0));
        (void)farm<std::vector<double>, double>(
            c, tasks, [](const std::vector<double>&) { return 0.0; });
      },
      opts);
  EXPECT_FALSE(res.ok);
}

class FarmWidth : public ::testing::TestWithParam<int> {};

TEST_P(FarmWidth, SumOverFarmMatchesSerial) {
  auto res = net::Cluster::run(GetParam(), [](net::Comm& c) {
    std::vector<int> tasks;
    if (c.rank() == 0) {
      tasks.resize(37);
      std::iota(tasks.begin(), tasks.end(), 1);
    }
    auto out = farm<int, std::int64_t>(c, tasks, [](int x) {
      return static_cast<std::int64_t>(x) * x;
    });
    if (c.rank() == 0) {
      std::int64_t total = 0;
      for (auto v : out) total += v;
      std::int64_t expect = 0;
      for (int x = 1; x <= 37; ++x) expect += static_cast<std::int64_t>(x) * x;
      EXPECT_EQ(total, expect);
    }
  });
  EXPECT_TRUE(res.ok);
}

INSTANTIATE_TEST_SUITE_P(Widths, FarmWidth, ::testing::Values(1, 2, 3, 6));

}  // namespace
}  // namespace triolet::eden
