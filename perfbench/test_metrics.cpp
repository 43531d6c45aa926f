// Tests of the benchmark's own arithmetic: the percentile rule, span self
// time, counter deltas summed across ranks, and failure accounting.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "metrics.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile(one_to(100), 0.9), 90);
  EXPECT_EQ(percentile(one_to(100), 0.5), 50);
  EXPECT_EQ(percentile(one_to(10), 0.95), 10);
  EXPECT_EQ(percentile({7.0}, 0.5), 7);
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(tail_percentile(one_to(99), 0.9).has_value());
  ASSERT_TRUE(tail_percentile(one_to(100), 0.9).has_value());
  EXPECT_EQ(*tail_percentile(one_to(100), 0.9), 90);
  EXPECT_FALSE(tail_percentile(one_to(999), 0.99).has_value());
  EXPECT_TRUE(tail_percentile(one_to(1000), 0.99).has_value());
  EXPECT_TRUE(tail_percentile(one_to(20), 0.5).has_value());
  EXPECT_FALSE(tail_percentile(one_to(19), 0.5).has_value());
  EXPECT_FALSE(tail_percentile({}, 0.5).has_value());
}

Span span(std::int64_t id, std::int64_t parent, std::int64_t lo,
          std::int64_t hi, const char* name = "x.call", std::int64_t op = 0,
          int rank = 0) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_ns = lo;
  s.end_ns = hi;
  s.op = op;
  s.rank = rank;
  return s;
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // Parent [0,100] with children [10,30] and [40,70]; the grandchild
  // [12,14] only reduces its own parent. A span listed before its parent
  // still counts against it.
  std::vector<Span> s = {span(5, 2, 12, 14), span(1, -1, 0, 100),
                         span(2, 1, 10, 30), span(3, 1, 40, 70)};
  const auto self = self_seconds(s);
  EXPECT_DOUBLE_EQ(self[0], 1e-9 * 2);
  EXPECT_DOUBLE_EQ(self[1], 1e-9 * (100 - 20 - 30));
  EXPECT_DOUBLE_EQ(self[2], 1e-9 * (20 - 2));
  EXPECT_DOUBLE_EQ(self[3], 1e-9 * 30);
}

TEST(SelfTime, LayerTotalsPerOp) {
  std::vector<Span> s = {span(1, -1, 0, 100, "bench.op", 0),
                         span(2, 1, 0, 60, "apps.a", 0),
                         span(3, -1, 0, 50, "bench.op", 1),
                         span(4, 3, 0, 50, "apps.a", 1),
                         span(5, -1, 0, 999, "bench.setup", -1)};
  const Counters self = layer_self_per_op(s);
  EXPECT_DOUBLE_EQ(self.at("bench"), 1e-9 * 40 / 2);
  EXPECT_DOUBLE_EQ(self.at("apps"), 1e-9 * 110 / 2);
}

TEST(Counters, DeltaAndRankSum) {
  const Counters before = {{"net.messages", 10}, {"net.bytes", 100}};
  const Counters after = {{"net.messages", 14}, {"net.bytes", 160},
                          {"dist.cache_hits", 2}};
  const Counters d = delta(after, before);
  EXPECT_EQ(d.at("net.messages"), 4);
  EXPECT_EQ(d.at("net.bytes"), 60);
  EXPECT_EQ(d.at("dist.cache_hits"), 2);
  const Counters sum = sum_over_ranks({d, {{"net.messages", 1}}});
  EXPECT_EQ(sum.at("net.messages"), 5);
  EXPECT_EQ(sum.at("net.bytes"), 60);
}

TEST(Counters, PerOpSumsRanksThenAveragesOps) {
  std::vector<Span> s;
  for (std::int64_t op = 0; op < 2; ++op) {
    for (int rank = 0; rank < 2; ++rank) {
      Span x = span(10 * op + rank, -1, 0, rank == 0 ? 1000 * (op + 1) : 1,
                    "bench.op", op, rank);
      x.args["net.messages"] = static_cast<double>(1 + rank + op);
      s.push_back(x);
    }
  }
  const auto ops = per_op(s, "bench.op");
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops.at(0).at("net.messages"), 3);  // 1 + 2
  EXPECT_EQ(ops.at(1).at("net.messages"), 5);  // 2 + 3
  EXPECT_DOUBLE_EQ(ops.at(1).at("span_s"), 2e-6);  // rank 0's duration
  const Counters m = mean_per_op(ops);
  EXPECT_EQ(m.at("net.messages"), 4);
  EXPECT_DOUBLE_EQ(m.at("span_s"), 1.5e-6);
}

TEST(Tally, FailuresStayInTheDenominator) {
  Tally t;
  t.record(true);
  t.record(false);  // wrong result
  t.record(false);  // refused submission
  t.record(true);
  EXPECT_EQ(t.attempted, 4);
  EXPECT_EQ(t.failed, 2);
  EXPECT_DOUBLE_EQ(t.fail_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(t.ok_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(Tally{}.fail_ratio(), 1.0);
}

TEST(Trace, RecordsNestedSpansPerThreadAndWritesJson) {
  std::thread([] {
    ThreadTrace& t = thread_trace();
    t.on = true;
    t.rank = 1;
    t.op = 7;
    {
      ScopedSpan outer("bench.op");
      ScopedSpan inner("net.barrier");
      inner.add({{"net.messages", 2}});
    }
    t.on = false;
    ScopedSpan off("not.recorded");
    EXPECT_FALSE(off.active());
  }).join();
  std::vector<Span> mine;
  for (const Span& s : collect_spans()) {
    if (s.op == 7) mine.push_back(s);
  }
  ASSERT_EQ(mine.size(), 2u);  // inner closes first
  EXPECT_EQ(mine[0].name, "net.barrier");
  EXPECT_EQ(mine[0].parent, mine[1].id);
  EXPECT_EQ(mine[0].args.at("net.messages"), 2);
  EXPECT_EQ(mine[1].rank, 1);
  EXPECT_GE(mine[1].end_ns, mine[0].end_ns);

  const std::string path = "perfbench_trace_test.json";  // in the cwd
  ASSERT_TRUE(write_chrome_trace(path, mine, "{\"k\":1}"));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.str().find("\"name\":\"net.barrier\""), std::string::npos);
  std::remove(path.c_str());
  EXPECT_EQ(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\"");
}

}  // namespace
}  // namespace perfbench
