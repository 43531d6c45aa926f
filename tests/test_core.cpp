// Tests for the Triolet core library: the four iterator constructors, the
// Figure-2 skeleton algebra (map/zip/filter/concat_map and their shape
// rules), consumers (sum/reduce/count/histograms/builders), hint-driven
// threaded execution, slicing/partitioning of fused loops, and closure
// serialization of distributable iterators.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/triolet.hpp"
#include "serial/serialize.hpp"
#include "support/rng.hpp"

namespace triolet::core {
namespace {

Array1<double> random_array(index_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Array1<double> a(n);
  for (index_t i = 0; i < n; ++i) a[i] = rng.uniform(-10.0, 10.0);
  return a;
}

// -- constructor shapes (the Figure 2 typing rules) ----------------------------

TEST(Shapes, RangeIsIdxFlat) {
  auto it = range(0, 10);
  static_assert(decltype(it)::kKind == IterKind::kIdxFlat);
  EXPECT_EQ(it.size(), 10);
}

TEST(Shapes, MapPreservesConstructor) {
  auto a = map(range(0, 5), [](index_t i) { return i * 2; });
  static_assert(decltype(a)::kKind == IterKind::kIdxFlat);
  auto b = map(filter(range(0, 5), [](index_t) { return true; }),
               [](index_t i) { return i; });
  static_assert(decltype(b)::kKind == IterKind::kIdxNest);
}

TEST(Shapes, ZipOfFlatIndexersStaysIndexed) {
  auto z = zip(range(0, 5), range(10, 15));
  static_assert(decltype(z)::kKind == IterKind::kIdxFlat);
}

TEST(Shapes, ZipWithIrregularSideFallsBackToStepper) {
  auto f = filter(range(0, 5), [](index_t i) { return i % 2 == 0; });
  auto z = zip(f, range(0, 5));
  static_assert(decltype(z)::kKind == IterKind::kStepFlat);
}

TEST(Shapes, FilterOnIdxFlatAddsOneNestingLevel) {
  auto f = filter(range(0, 5), [](index_t i) { return i > 2; });
  static_assert(decltype(f)::kKind == IterKind::kIdxNest);
  EXPECT_EQ(f.size(), 5);  // outer tasks unchanged: indices not reassigned
}

TEST(Shapes, ConcatMapOnIdxFlatAddsOneNestingLevel) {
  auto c = concat_map(range(0, 4), [](index_t i) { return range(0, i); });
  static_assert(decltype(c)::kKind == IterKind::kIdxNest);
}

TEST(Shapes, FilterOnStepperStaysStepper) {
  auto s = zip(filter(range(0, 5), [](index_t) { return true; }), range(0, 5));
  auto f = filter(s, [](const auto&) { return true; });
  static_assert(decltype(f)::kKind == IterKind::kStepFlat);
}

// -- sequential semantics --------------------------------------------------------

TEST(Consume, SumOfRange) {
  EXPECT_EQ(sum(range(0, 100)), 4950);
  EXPECT_EQ(sum(range(5, 5)), 0);
}

TEST(Consume, MapThenSumFusesToElementwiseLoop) {
  auto xs = random_array(1000, 1);
  double manual = 0;
  for (index_t i = 0; i < 1000; ++i) manual += xs[i] * xs[i];
  auto it = map(from_array(xs), [](double x) { return x * x; });
  EXPECT_DOUBLE_EQ(sum(it), manual);
}

TEST(Consume, DotProductExample) {
  // The paper's §2 dot product: sum(x*y for (x,y) in zip(xs, ys)).
  auto xs = random_array(513, 2);
  auto ys = random_array(513, 3);
  double manual = 0;
  for (index_t i = 0; i < 513; ++i) manual += xs[i] * ys[i];
  auto dot = sum(map(zip(from_array(xs), from_array(ys)),
                     [](const auto& p) { return p.first * p.second; }));
  EXPECT_DOUBLE_EQ(dot, manual);
}

TEST(Consume, SumOfFilterPaperExample) {
  // §3.2: xs = [1, -2, -4, 1, 3, 4]; positives sum to 9.
  Array1<int> xs(0, {1, -2, -4, 1, 3, 4});
  auto pos = filter(from_array(xs), [](int x) { return x > 0; });
  EXPECT_EQ(sum(pos), 9);
  EXPECT_EQ(count(pos), 4);
}

TEST(Consume, Zip3Triples) {
  Array1<double> x(0, {1, 2}), y(0, {10, 20}), z(0, {100, 200});
  auto it = map(zip3(from_array(x), from_array(y), from_array(z)),
                [](const auto& t) {
                  auto [a, b, c] = t;
                  return a + b + c;
                });
  EXPECT_DOUBLE_EQ(sum(it), 111.0 + 222.0);
}

TEST(Consume, ConcatMapTriangularCount) {
  // tpacf's pattern: all unique pairs (i, j), j > i, of an n-element set.
  const index_t n = 20;
  auto pairs = concat_map(range(0, n),
                          [n](index_t i) { return range(i + 1, n); });
  EXPECT_EQ(count(pairs), n * (n - 1) / 2);
}

TEST(Consume, NestedFilterInsideConcatMap) {
  // Filter distributes through nesting: keep even j from each inner range.
  auto nested = concat_map(range(0, 6), [](index_t i) { return range(0, i); });
  auto evens = filter(nested, [](index_t j) { return j % 2 == 0; });
  // inner contents: i=0:[] 1:[0] 2:[0] 3:[0,2] 4:[0,2] 5:[0,2,4]
  EXPECT_EQ(count(evens), 1 + 1 + 2 + 2 + 3);
  EXPECT_EQ(sum(evens), 0 + 0 + 2 + 2 + (2 + 4));
}

TEST(Consume, MapOverNestedIterator) {
  auto nested = concat_map(range(0, 4), [](index_t i) { return range(0, i); });
  auto doubled = map(nested, [](index_t j) { return j * 10; });
  EXPECT_EQ(sum(doubled), 10 * (0 + 0 + 1 + 0 + 1 + 2));
}

TEST(Consume, ToVectorPreservesCanonicalOrder) {
  auto nested = concat_map(range(0, 4), [](index_t i) { return range(0, i); });
  auto v = to_vector(nested);
  EXPECT_EQ(v, (std::vector<index_t>{0, 0, 1, 0, 1, 2}));
}

TEST(Consume, ZipStopsAtShorterSide) {
  auto z = zip(range(0, 3), range(0, 10));
  EXPECT_EQ(count(z), 3);
  // Stepper-side zip also truncates.
  auto f = filter(range(0, 10), [](index_t i) { return i < 3; });
  auto zs = zip(f, range(100, 200));
  auto v = to_vector(zs);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].first, 0);
  EXPECT_EQ(v[0].second, 100);
  EXPECT_EQ(v[2].second, 102);
}

TEST(Consume, ReduceWithNonTrivialIdentity) {
  auto it = map(range(1, 6), [](index_t i) { return i; });
  auto product = reduce(it, index_t{1},
                        [](index_t a, index_t b) { return a * b; });
  EXPECT_EQ(product, 120);
}

TEST(Consume, IndicesOverDim2VisitsWholeBox) {
  auto it = indices(Dim2{0, 3, 0, 4});
  EXPECT_EQ(count(it), 12);
  auto s = sum(map(it, [](Index2 i) { return i.y * 10 + i.x; }));
  index_t manual = 0;
  for (index_t y = 0; y < 3; ++y)
    for (index_t x = 0; x < 4; ++x) manual += y * 10 + x;
  EXPECT_EQ(s, manual);
}

// -- histograms -------------------------------------------------------------------

TEST(Histogram, CountsBins) {
  Array1<index_t> data(0, {0, 1, 1, 2, 2, 2, 4});
  auto h = histogram(5, from_array(data));
  EXPECT_EQ(h[0], 1);
  EXPECT_EQ(h[1], 2);
  EXPECT_EQ(h[2], 3);
  EXPECT_EQ(h[3], 0);
  EXPECT_EQ(h[4], 1);
}

TEST(Histogram, ParallelMatchesSequential) {
  Xoshiro256 rng(5);
  Array1<index_t> data(20000);
  for (index_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<index_t>(rng.below(32));
  auto hs = histogram(32, from_array(data));
  auto hp = histogram(32, localpar(from_array(data)));
  EXPECT_EQ(hs, hp);
}

TEST(Histogram, OfNestedIteratorCountsInnerElements) {
  auto nested = concat_map(range(0, 10), [](index_t i) { return range(0, i); });
  auto h = histogram(10, nested);
  // value j appears once per i > j  ->  9 - j times.
  for (index_t j = 0; j < 10; ++j) EXPECT_EQ(h[j], 9 - j);
}

TEST(FloatHistogram, AccumulatesWeights) {
  auto it = map(range(0, 100), [](index_t i) {
    return std::pair<index_t, double>(i % 4, 0.5);
  });
  auto h = float_histogram<double>(4, it);
  for (index_t b = 0; b < 4; ++b) EXPECT_DOUBLE_EQ(h[b], 12.5);
}

TEST(FloatHistogram, ParallelMatchesSequentialWithinTolerance) {
  Xoshiro256 rng(6);
  Array1<double> w(50000);
  for (index_t i = 0; i < w.size(); ++i) w[i] = rng.uniform();
  auto make = [&](ParHint h) {
    auto it = map(from_array(w), [](double x) {
      return std::pair<index_t, double>(static_cast<index_t>(x * 16), x);
    });
    return float_histogram<double>(16, with_hint(it, h));
  };
  auto hs = make(ParHint::kSeq);
  auto hp = make(ParHint::kLocal);
  for (index_t b = 0; b < 16; ++b) {
    EXPECT_NEAR(hp[b], hs[b], 1e-9 * std::max(1.0, hs[b]));
  }
}

TEST(Histogram, OneWorkerPoolRunsOnThePool) {
  // A one-worker pool has two threads, its worker and the caller, so both
  // histogram consumers privatize on it. Every chunk a parallel loop runs,
  // on the caller too, counts in tasks_executed, so the check below does not
  // depend on which thread ran what.
  runtime::ThreadPool pool(1);
  runtime::PoolScope scope(pool);
  Xoshiro256 rng(7);
  Array1<index_t> bins(20000);
  for (index_t i = 0; i < bins.size(); ++i)
    bins[i] = static_cast<index_t>(rng.below(32));
  // Integer-valued weights: every summation order gives the same doubles.
  auto cells = map(from_array(bins), [](index_t b) {
    return std::pair<index_t, double>(b % 16, static_cast<double>(b));
  });

  const auto t0 = pool.stats().tasks_executed;
  auto hp = histogram(32, localpar(from_array(bins)));
  const auto t1 = pool.stats().tasks_executed;
  auto fp = float_histogram<double>(16, with_hint(cells, ParHint::kLocal));
  const auto t2 = pool.stats().tasks_executed;
  EXPECT_GT(t1, t0);
  EXPECT_GT(t2, t1);
  EXPECT_EQ(hp, histogram(32, from_array(bins)));
  EXPECT_EQ(fp, float_histogram<double>(16, with_hint(cells, ParHint::kSeq)));
}

// -- hint-driven threading ---------------------------------------------------------

TEST(Hints, DefaultIsSeqAndParSetsDist) {
  auto it = range(0, 10);
  EXPECT_EQ(it.hint, ParHint::kSeq);
  EXPECT_EQ(par(it).hint, ParHint::kDist);
  EXPECT_EQ(localpar(it).hint, ParHint::kLocal);
  EXPECT_EQ(unpar(par(it)).hint, ParHint::kSeq);
}

TEST(Hints, SurviveMapFilterConcatMap) {
  auto it = localpar(range(0, 10));
  EXPECT_EQ(map(it, [](index_t i) { return i; }).hint, ParHint::kLocal);
  EXPECT_EQ(filter(it, [](index_t) { return true; }).hint, ParHint::kLocal);
  EXPECT_EQ(concat_map(it, [](index_t i) { return range(0, i); }).hint,
            ParHint::kLocal);
}

TEST(Hints, ZipMergesHints) {
  auto z = zip(par(range(0, 5)), range(0, 5));
  EXPECT_EQ(z.hint, ParHint::kDist);
}

TEST(Hints, LocalparSumMatchesSeq) {
  auto xs = random_array(30000, 7);
  auto seq_sum = sum(map(from_array(xs), [](double x) { return x * 0.5; }));
  auto par_sum =
      sum(map(localpar(from_array(xs)), [](double x) { return x * 0.5; }));
  EXPECT_NEAR(par_sum, seq_sum, 1e-9 * std::abs(seq_sum));
}

TEST(Hints, LocalparNestedIteratorParallelizesOuter) {
  const index_t n = 200;
  auto pairs = localpar(
      concat_map(range(0, n), [n](index_t i) { return range(i + 1, n); }));
  EXPECT_EQ(count(pairs), n * (n - 1) / 2);
}

TEST(Hints, LocalparFilteredSumMatchesSeq) {
  auto xs = random_array(10000, 8);
  auto make = [&](ParHint h) {
    auto f = filter(from_array(xs), [](double x) { return x > 0; });
    return sum(with_hint(f, h));
  };
  EXPECT_NEAR(make(ParHint::kLocal), make(ParHint::kSeq), 1e-9);
}

// -- materialization -----------------------------------------------------------------

TEST(Build, Array1FromMappedRange) {
  auto out = build_array1(map(range(0, 8), [](index_t i) { return i * i; }));
  ASSERT_EQ(out.size(), 8);
  for (index_t i = 0; i < 8; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(Build, Array1KeepsDomainBase) {
  auto out = build_array1(map(range(10, 15), [](index_t i) { return i; }));
  EXPECT_EQ(out.lo(), 10);
  EXPECT_EQ(out[12], 12);
}

TEST(Build, Array1ParallelMatchesSeq) {
  auto mk = [](ParHint h) {
    return build_array1(
        with_hint(map(range(0, 5000), [](index_t i) { return 3 * i + 1; }), h));
  };
  EXPECT_EQ(mk(ParHint::kSeq), mk(ParHint::kLocal));
}

TEST(Build, Array2Transpose) {
  // §3.3's transposition comprehension:
  // [A[x,y] for (y,x) in arrayRange(h, w)]
  Array2<int> a(2, 3);
  int v = 0;
  for (index_t y = 0; y < 2; ++y)
    for (index_t x = 0; x < 3; ++x) a(y, x) = v++;
  auto t_iter = map(array_range(3, 2), [&a](Index2 i) { return a(i.x, i.y); });
  auto t = build_array2(t_iter);
  EXPECT_EQ(t, transpose(a));
}

TEST(Build, Block2CoversSubDomain) {
  auto it = map(indices(Dim2{2, 4, 3, 6}),
                [](Index2 i) { return i.y * 100 + i.x; });
  auto block = build_block2(it);
  EXPECT_EQ(block.dom, (Dim2{2, 4, 3, 6}));
  EXPECT_EQ(block.at(Index2{3, 5}), 305);
}

// -- rows / outerproduct / matmul -----------------------------------------------------

TEST(MultiDim, RowsYieldsBorrowedSpans) {
  Array2<double> a(3, 4, 2.0);
  auto r = rows(a);
  EXPECT_EQ(r.size(), 3);
  auto row1 = r.at(1);
  EXPECT_EQ(row1.size(), 4u);
  EXPECT_DOUBLE_EQ(row1[2], 2.0);
}

TEST(MultiDim, OuterProductMatmulMatchesReference) {
  // The paper §2 two-line sgemm (without the alpha scale):
  //   zipped = outerproduct(rows(A), rows(BT))
  //   AB = [dot(u, v) for (u, v) in zipped]
  const index_t n = 16, k = 8, m = 12;
  Xoshiro256 rng(11);
  Array2<double> a(n, k), b(k, m);
  for (index_t y = 0; y < n; ++y)
    for (index_t x = 0; x < k; ++x) a(y, x) = rng.uniform(-1, 1);
  for (index_t y = 0; y < k; ++y)
    for (index_t x = 0; x < m; ++x) b(y, x) = rng.uniform(-1, 1);
  Array2<double> bt = transpose(b);

  auto zipped = outerproduct(rows(a), rows(bt));
  auto prod = build_array2(map(zipped, [](const auto& uv) {
    double acc = 0;
    for (std::size_t i = 0; i < uv.first.size(); ++i)
      acc += uv.first[i] * uv.second[i];
    return acc;
  }));

  for (index_t y = 0; y < n; ++y) {
    for (index_t x = 0; x < m; ++x) {
      double ref = 0;
      for (index_t i = 0; i < k; ++i) ref += a(y, i) * b(i, x);
      ASSERT_NEAR(prod(y, x), ref, 1e-12) << y << "," << x;
    }
  }
}

// -- slicing / partitioning (the distributed-execution invariants) ---------------------

TEST(Slicing, FlatIteratorSliceSumsToWhole) {
  auto xs = random_array(1000, 20);
  auto it = map(from_array(xs), [](double x) { return 2.0 * x; });
  double whole = sum(it);
  double parts = 0;
  for (const auto& chunk : split_blocks(it.domain(), 7)) {
    parts += sum(it.slice(chunk));
  }
  EXPECT_NEAR(parts, whole, 1e-9);
}

TEST(Slicing, SliceCarriesOnlyItsSubarray) {
  auto xs = random_array(1000, 21);
  auto it = from_array(xs);
  auto sl = it.slice(Seq{100, 200});
  EXPECT_EQ(sl.ix.src.size(), 100);
  EXPECT_EQ(sl.ix.src.lo(), 100);
  // Wire size shrinks proportionally (plus fixed header).
  EXPECT_LT(serial::wire_size(sl), serial::wire_size(it) / 5);
}

TEST(Slicing, ZippedSliceSlicesBothSources) {
  auto xs = random_array(100, 22);
  auto ys = random_array(100, 23);
  auto z = zip(from_array(xs), from_array(ys));
  auto sl = z.slice(Seq{10, 20});
  EXPECT_EQ(sl.ix.src.first.size(), 10);
  EXPECT_EQ(sl.ix.src.second.size(), 10);
  double manual = 0;
  for (index_t i = 10; i < 20; ++i) manual += xs[i] * ys[i];
  EXPECT_DOUBLE_EQ(
      sum(map(sl, [](const auto& p) { return p.first * p.second; })), manual);
}

TEST(Slicing, NestedIteratorSlicesByOuterTask) {
  // filter is sliceable by outer index: each chunk reprocesses only its
  // own inputs ("get each intermediate result generated from the nth
  // input", §2).
  auto xs = random_array(500, 24);
  auto f = filter(from_array(xs), [](double x) { return x > 0; });
  double whole = sum(f);
  double parts = 0;
  for (const auto& chunk : split_blocks(Seq{0, 500}, 4)) {
    parts += sum(f.slice(chunk));
  }
  EXPECT_NEAR(parts, whole, 1e-9);
}

TEST(Slicing, OuterProductBlockGetsOnlyItsRows) {
  Array2<double> a(16, 4, 1.0), bt(12, 4, 2.0);
  auto z = outerproduct(rows(a), rows(bt));
  auto block = z.slice(Dim2{4, 8, 3, 9});
  EXPECT_EQ(block.ix.src.a.rows(), 4);   // rows 4..8 of A
  EXPECT_EQ(block.ix.src.a.row_lo(), 4);
  EXPECT_EQ(block.ix.src.b.rows(), 6);   // rows 3..9 of BT
  EXPECT_EQ(block.ix.src.b.row_lo(), 3);
  auto uv = block.at(Index2{5, 7});
  EXPECT_DOUBLE_EQ(uv.first[0], 1.0);
  EXPECT_DOUBLE_EQ(uv.second[0], 2.0);
}

TEST(Slicing, SlicedIteratorSerializesAndRuns) {
  // The full distributed round trip: slice -> serialize -> deserialize ->
  // consume on the "remote" side, with the fused map still applied.
  auto xs = random_array(300, 25);
  const double scale = 1.5;  // captured by value: crosses the wire
  auto it = map(from_array(xs), [scale](double x) { return scale * x; });
  auto sl = it.slice(Seq{50, 150});

  auto bytes = serial::to_bytes(sl);
  auto remote = serial::from_bytes<decltype(sl)>(bytes);

  EXPECT_DOUBLE_EQ(sum(remote), sum(sl));
  EXPECT_EQ(remote.domain(), (Seq{50, 150}));
}

TEST(Slicing, SlicedNestedIteratorSerializesAndRuns) {
  auto xs = random_array(300, 26);
  auto f = filter(from_array(xs), [](double x) { return x < 0; });
  auto sl = f.slice(Seq{100, 250});
  auto remote = serial::from_bytes<decltype(sl)>(serial::to_bytes(sl));
  EXPECT_DOUBLE_EQ(sum(remote), sum(sl));
}

// -- encodings and conversions (Figure 1) ------------------------------------------

TEST(Encodings, FoldAccumulatesInOrder) {
  auto f = to_fold(range(0, 4));
  auto s = f.fold([](index_t v, std::string acc) {
    return acc + std::to_string(v);
  }, std::string{});
  EXPECT_EQ(s, "0123");
}

TEST(Encodings, CollectorSupportsMutation) {
  std::vector<index_t> out;
  to_collector(filter(range(0, 10), [](index_t i) { return i % 3 == 0; }))
      .collect([&](index_t v) { out.push_back(v); });
  EXPECT_EQ(out, (std::vector<index_t>{0, 3, 6, 9}));
}

TEST(Encodings, ToStepEnumeratesSameElementsAsVisit) {
  auto it = concat_map(range(0, 5), [](index_t i) { return range(0, i); });
  std::vector<index_t> via_visit;
  visit(it, [&](index_t v) { via_visit.push_back(v); });
  std::vector<index_t> via_step;
  auto sf = to_step(it);
  auto s = sf.make();
  drain(s, [&](index_t v) { via_step.push_back(v); });
  EXPECT_EQ(via_step, via_visit);
}

// -- property sweeps ------------------------------------------------------------------

class FusionProperty : public ::testing::TestWithParam<int> {};

TEST_P(FusionProperty, FilterSumMatchesHandLoop) {
  auto xs = random_array(777, static_cast<std::uint64_t>(GetParam()));
  double threshold = (GetParam() % 5) - 2.0;
  auto it = filter(map(from_array(xs), [](double x) { return x * 3.0; }),
                   [threshold](double x) { return x > threshold; });
  double manual = 0;
  for (index_t i = 0; i < xs.size(); ++i) {
    double v = xs[i] * 3.0;
    if (v > threshold) manual += v;
  }
  EXPECT_DOUBLE_EQ(sum(it), manual);
}

TEST_P(FusionProperty, SliceSumInvariantHoldsForAnyPartition) {
  auto xs = random_array(512, static_cast<std::uint64_t>(GetParam()) + 100);
  auto it = map(from_array(xs), [](double x) { return x + 1.0; });
  double whole = sum(it);
  int parts = 1 + GetParam() % 9;
  double acc = 0;
  for (const auto& chunk : split_blocks(it.domain(), parts)) {
    acc += sum(it.slice(chunk));
  }
  EXPECT_NEAR(acc, whole, 1e-9);
}

TEST_P(FusionProperty, CountOfConcatMapMatchesClosedForm) {
  index_t n = 10 + GetParam() * 13;
  auto tri = concat_map(range(0, n), [n](index_t i) { return range(i + 1, n); });
  EXPECT_EQ(count(tri), n * (n - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionProperty, ::testing::Range(0, 10));

}  // namespace
}  // namespace triolet::core
