// Microbenchmarks of the tree-structured collectives: broadcast / reduce /
// allreduce swept over rank counts and payload sizes, on real SPMD rank
// threads. Each benchmark also reports structural counters derived from the
// per-collective CommStats so the O(log P) critical path is visible in the
// output, not just the wall clock:
//
//   depth_msgs       broadcast: the busiest rank's sends (the root forwards
//                    ceil(log2 P) times); reduce: the root's receives
//                    (it merges ceil(log2 P) subtree partials)
//   root_recv_bytes  reduce: bytes arriving at rank 0 — ceil(log2 P)
//                    payloads, where a linear fold at the root would
//                    receive P-1
//
// Baseline numbers are recorded in bench/BENCH_collectives.json.

#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "net/cluster.hpp"

namespace {

using namespace triolet;

/// Runs `body` once and returns every rank's CommStats.
std::vector<net::CommStats> probe(
    int ranks, const std::function<void(net::Comm&)>& body) {
  std::vector<net::CommStats> stats(static_cast<std::size_t>(ranks));
  auto res = net::Cluster::run(ranks, [&](net::Comm& c) {
    body(c);
    stats[static_cast<std::size_t>(c.rank())] = c.snapshot_stats();
  });
  if (!res.ok) stats.clear();
  return stats;
}

std::vector<double> payload_of(std::int64_t elems) {
  return std::vector<double>(static_cast<std::size_t>(elems), 1.25);
}

void elementwise_add(std::vector<double>& a, const std::vector<double>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

constexpr int kOpsPerRun = 8;  // collectives per cluster launch, to amortize
                               // rank-thread spawn cost

void BM_Coll_Broadcast(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto elems = state.range(1);
  auto v0 = payload_of(elems);
  auto stats = probe(ranks, [&](net::Comm& c) {
    auto v = c.rank() == 0 ? v0 : std::vector<double>{};
    c.broadcast(v, 0);
  });
  std::int64_t depth = 0;
  for (const auto& s : stats) {
    depth = std::max(depth,
                     s.collective(net::Collective::kBroadcast).messages_sent);
  }
  for (auto _ : state) {
    auto res = net::Cluster::run(ranks, [&](net::Comm& c) {
      for (int i = 0; i < kOpsPerRun; ++i) {
        auto v = c.rank() == 0 ? v0 : std::vector<double>{};
        c.broadcast(v, 0);
        benchmark::DoNotOptimize(v);
      }
    });
    if (!res.ok) state.SkipWithError("cluster failed");
  }
  state.SetBytesProcessed(state.iterations() * kOpsPerRun *
                          static_cast<std::int64_t>(elems) * 8);
  state.counters["depth_msgs"] = static_cast<double>(depth);
}
BENCHMARK(BM_Coll_Broadcast)
    ->ArgNames({"ranks", "elems"})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({16, 1})
    ->Args({32, 1})
    ->Args({2, 4096})
    ->Args({4, 4096})
    ->Args({8, 4096})
    ->Args({16, 4096})
    ->Args({32, 4096});

void reduce_arrays(net::Comm& c, const std::vector<double>& mine) {
  auto op = [](std::vector<double> a, const std::vector<double>& b) {
    elementwise_add(a, b);
    return a;
  };
  benchmark::DoNotOptimize(c.reduce(mine, op, 0));
}

void BM_Coll_Reduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto elems = state.range(1);
  auto mine = payload_of(elems);
  auto stats = probe(ranks, [&](net::Comm& c) { reduce_arrays(c, mine); });
  const auto& root = stats.at(0).collective(net::Collective::kReduce);
  for (auto _ : state) {
    auto res = net::Cluster::run(ranks, [&](net::Comm& c) {
      for (int i = 0; i < kOpsPerRun; ++i) reduce_arrays(c, mine);
    });
    if (!res.ok) state.SkipWithError("cluster failed");
  }
  state.SetBytesProcessed(state.iterations() * kOpsPerRun *
                          static_cast<std::int64_t>(elems) * 8);
  state.counters["depth_msgs"] = static_cast<double>(root.messages_received);
  state.counters["root_recv_bytes"] = static_cast<double>(root.bytes_received);
}
BENCHMARK(BM_Coll_Reduce)
    ->ArgNames({"ranks", "elems"})
    ->Args({4, 4096})
    ->Args({8, 4096})
    ->Args({16, 4096})
    ->Args({32, 4096})
    ->Args({16, 65536});

void BM_Coll_Allreduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto elems = state.range(1);
  auto mine = payload_of(elems);
  auto op = [](std::vector<double> a, const std::vector<double>& b) {
    elementwise_add(a, b);
    return a;
  };
  auto stats = probe(ranks, [&](net::Comm& c) {
    benchmark::DoNotOptimize(c.allreduce(mine, op));
  });
  std::int64_t max_msgs = 0;
  for (const auto& s : stats) {
    max_msgs = std::max(
        max_msgs, s.collective(net::Collective::kAllreduce).messages_sent);
  }
  for (auto _ : state) {
    auto res = net::Cluster::run(ranks, [&](net::Comm& c) {
      for (int i = 0; i < kOpsPerRun; ++i) {
        benchmark::DoNotOptimize(c.allreduce(mine, op));
      }
    });
    if (!res.ok) state.SkipWithError("cluster failed");
  }
  state.SetBytesProcessed(state.iterations() * kOpsPerRun *
                          static_cast<std::int64_t>(elems) * 8);
  state.counters["depth_msgs"] = static_cast<double>(max_msgs);
}
BENCHMARK(BM_Coll_Allreduce)
    ->ArgNames({"ranks", "elems"})
    ->Args({2, 4096})
    ->Args({4, 4096})
    ->Args({8, 4096})
    ->Args({16, 4096})
    ->Args({32, 4096})
    ->Args({7, 4096});  // non-power-of-two: fold-in/fold-out path

void BM_Coll_Barrier(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto res = net::Cluster::run(ranks, [](net::Comm& c) {
      for (int i = 0; i < 32; ++i) c.barrier();
    });
    if (!res.ok) state.SkipWithError("cluster failed");
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_Coll_Barrier)->ArgName("ranks")->Arg(4)->Arg(16)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
