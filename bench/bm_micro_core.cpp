// Microbenchmarks of the core skeleton library (google-benchmark): fused
// pipelines against their hand-written loop equivalents, verifying the
// "library-driven loop fusion compiles to plain loops" claim at microbench
// granularity.

#include <benchmark/benchmark.h>

#include "core/triolet.hpp"
#include "support/rng.hpp"

namespace {

using namespace triolet;
using namespace triolet::core;

Array1<double> data(index_t n) {
  Xoshiro256 rng(5);
  Array1<double> a(n);
  for (index_t i = 0; i < n; ++i) a[i] = rng.uniform(-1.0, 1.0);
  return a;
}

void BM_HandLoop_Dot(benchmark::State& state) {
  auto xs = data(state.range(0));
  for (auto _ : state) {
    double acc = 0;
    for (index_t i = 0; i < xs.size(); ++i) acc += xs[i] * xs[i];
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HandLoop_Dot)->Arg(1 << 14)->Arg(1 << 18);

void BM_Iter_Dot(benchmark::State& state) {
  auto xs = data(state.range(0));
  // Built outside the timed loop, as in every BM_Iter_* case: from_array
  // takes its Array1 by value, and that copy is not the fused loop.
  auto it = map(zip(from_array(xs), from_array(xs)),
                [](const auto& p) { return p.first * p.second; });
  for (auto _ : state) {
    benchmark::DoNotOptimize(sum(it));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Iter_Dot)->Arg(1 << 14)->Arg(1 << 18);

void BM_HandLoop_FilterSum(benchmark::State& state) {
  auto xs = data(state.range(0));
  for (auto _ : state) {
    double acc = 0;
    for (index_t i = 0; i < xs.size(); ++i) {
      if (xs[i] > 0) acc += xs[i];
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HandLoop_FilterSum)->Arg(1 << 14)->Arg(1 << 18);

void BM_Iter_FilterSum(benchmark::State& state) {
  auto xs = data(state.range(0));
  auto it = filter(from_array(xs), [](double x) { return x > 0; });
  for (auto _ : state) {
    benchmark::DoNotOptimize(sum(it));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Iter_FilterSum)->Arg(1 << 14)->Arg(1 << 18);

void BM_HandLoop_Triangular(benchmark::State& state) {
  const index_t n = state.range(0);
  for (auto _ : state) {
    std::int64_t acc = 0;
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = i + 1; j < n; ++j) acc += (i ^ j);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_HandLoop_Triangular)->Arg(256)->Arg(1024);

void BM_Iter_Triangular(benchmark::State& state) {
  const index_t n = state.range(0);
  for (auto _ : state) {
    auto it = concat_map(range(0, n), [n](index_t i) {
      return map(range(i + 1, n), [i](index_t j) { return i ^ j; });
    });
    benchmark::DoNotOptimize(sum(it));
  }
}
BENCHMARK(BM_Iter_Triangular)->Arg(256)->Arg(1024);

void BM_Iter_SliceAndSum(benchmark::State& state) {
  auto xs = data(1 << 18);
  auto it = map(from_array(xs), [](double x) { return x + 1.0; });
  for (auto _ : state) {
    auto sl = it.slice(Seq{1000, 1000 + state.range(0)});
    benchmark::DoNotOptimize(sum(sl));
  }
}
BENCHMARK(BM_Iter_SliceAndSum)->Arg(1 << 10)->Arg(1 << 16);

void BM_Iter_Histogram(benchmark::State& state) {
  const index_t n = state.range(0);
  auto xs = data(n);
  auto it = map(from_array(xs), [](double x) {
    return static_cast<index_t>((x + 1.0) * 31.9);
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram(64, it));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Iter_Histogram)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
