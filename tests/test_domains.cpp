// Tests for index-space domains: sizes, canonical iteration, ordinals,
// intersection, and the block-splitting used for work distribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "core/domains.hpp"
#include "runtime/parallel.hpp"
#include "sched/policy.hpp"

namespace triolet::core {
namespace {

TEST(Seq, SizeAndContains) {
  Seq d{3, 10};
  EXPECT_EQ(d.size(), 7);
  EXPECT_TRUE(d.contains(3));
  EXPECT_TRUE(d.contains(9));
  EXPECT_FALSE(d.contains(10));
  EXPECT_FALSE(d.contains(2));
}

TEST(Seq, EmptyAndInvertedAreEmpty) {
  EXPECT_EQ((Seq{5, 5}).size(), 0);
  EXPECT_EQ((Seq{7, 3}).size(), 0);
}

TEST(Seq, ForEachVisitsAscending) {
  Seq d{2, 6};
  std::vector<index_t> seen;
  d.for_each([&](index_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<index_t>{2, 3, 4, 5}));
}

TEST(Seq, OrdinalIsPositionInIterationOrder) {
  Seq d{10, 20};
  EXPECT_EQ(d.ordinal(10), 0);
  EXPECT_EQ(d.ordinal(15), 5);
}

TEST(Dim2, SizeRowsCols) {
  Dim2 d{1, 4, 2, 7};
  EXPECT_EQ(d.rows(), 3);
  EXPECT_EQ(d.cols(), 5);
  EXPECT_EQ(d.size(), 15);
}

TEST(Dim2, ForEachIsRowMajorAndOrdinalAgrees) {
  Dim2 d{0, 2, 0, 3};
  std::vector<Index2> seen;
  d.for_each([&](Index2 i) { seen.push_back(i); });
  ASSERT_EQ(seen.size(), 6u);
  EXPECT_EQ(seen[0], (Index2{0, 0}));
  EXPECT_EQ(seen[1], (Index2{0, 1}));
  EXPECT_EQ(seen[3], (Index2{1, 0}));
  for (std::size_t k = 0; k < seen.size(); ++k) {
    EXPECT_EQ(d.ordinal(seen[k]), static_cast<index_t>(k));
  }
}

TEST(Dim3, SizeAndOrdinalRoundTrip) {
  Dim3 d{1, 3, 0, 2, 5, 9};
  EXPECT_EQ(d.size(), 2 * 2 * 4);
  index_t expected = 0;
  d.for_each([&](Index3 i) {
    EXPECT_EQ(d.ordinal(i), expected);
    ++expected;
  });
  EXPECT_EQ(expected, d.size());
}

TEST(Intersect, SeqOverlap) {
  Seq r = intersect(Seq{0, 10}, Seq{5, 20});
  EXPECT_EQ(r, (Seq{5, 10}));
  EXPECT_EQ(intersect(Seq{0, 3}, Seq{5, 9}).size(), 0);
}

TEST(Intersect, Dim2Overlap) {
  Dim2 r = intersect(Dim2{0, 4, 0, 4}, Dim2{2, 6, 1, 3});
  EXPECT_EQ(r, (Dim2{2, 4, 1, 3}));
}

TEST(SplitBlocks, SeqCoversWithoutOverlap) {
  Seq d{0, 100};
  auto blocks = split_blocks(d, 7);
  ASSERT_EQ(blocks.size(), 7u);
  index_t covered = 0;
  index_t prev_hi = d.lo;
  for (const auto& b : blocks) {
    EXPECT_EQ(b.lo, prev_hi);
    prev_hi = b.hi;
    covered += b.size();
  }
  EXPECT_EQ(prev_hi, d.hi);
  EXPECT_EQ(covered, d.size());
}

TEST(SplitBlocks, SeqBalancesWithinOne) {
  auto blocks = split_blocks(Seq{0, 100}, 7);
  for (const auto& b : blocks) {
    EXPECT_GE(b.size(), 100 / 7);
    EXPECT_LE(b.size(), 100 / 7 + 1);
  }
}

TEST(SplitBlocks, MoreChunksThanElementsYieldsEmpties) {
  auto blocks = split_blocks(Seq{0, 3}, 5);
  index_t covered = 0;
  for (const auto& b : blocks) covered += b.size();
  EXPECT_EQ(covered, 3);
}

TEST(SplitBlocks, Dim2PartitionCoversExactly) {
  Dim2 d{0, 64, 0, 64};
  for (int k : {1, 2, 4, 8, 16}) {
    auto blocks = split_blocks(d, k);
    ASSERT_EQ(static_cast<int>(blocks.size()), k);
    std::set<std::pair<index_t, index_t>> seen;
    index_t total = 0;
    for (const auto& b : blocks) {
      total += b.size();
      b.for_each([&](Index2 i) {
        auto [it, fresh] = seen.insert({i.y, i.x});
        EXPECT_TRUE(fresh) << "cell covered twice";
      });
    }
    EXPECT_EQ(total, d.size());
    EXPECT_EQ(static_cast<index_t>(seen.size()), d.size());
  }
}

TEST(SplitBlocks, Dim2SquareDomainPrefersSquareGrid) {
  auto blocks = split_blocks(Dim2{0, 64, 0, 64}, 4);  // expect 2x2
  EXPECT_EQ(blocks[0].rows(), 32);
  EXPECT_EQ(blocks[0].cols(), 32);
}

TEST(SplitBlocks, Dim2TallDomainPrefersRowSplit) {
  auto blocks = split_blocks(Dim2{0, 1000, 0, 10}, 4);  // expect 4x1
  EXPECT_EQ(blocks[0].cols(), 10);
  EXPECT_EQ(blocks[0].rows(), 250);
}

TEST(SplitGrain, ChunksRespectGrain) {
  auto chunks = split_grain(Seq{5, 47}, 10);
  index_t covered = 0;
  for (const auto& c : chunks) {
    EXPECT_LE(c.size(), 10);
    covered += c.size();
  }
  EXPECT_EQ(covered, 42);
  EXPECT_EQ(chunks.front().lo, 5);
  EXPECT_EQ(chunks.back().hi, 47);
}

TEST(SplitGrain, EmptyDomainYieldsOneEmptyChunk) {
  auto chunks = split_grain(Seq{5, 5}, 10);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].size(), 0);
}

// Parameterized coverage property over many (size, parts) combinations.
class SeqSplitProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SeqSplitProperty, PartitionIsExact) {
  auto [n, k] = GetParam();
  auto blocks = split_blocks(Seq{0, n}, k);
  index_t covered = 0;
  index_t prev = 0;
  for (const auto& b : blocks) {
    EXPECT_EQ(b.lo, prev);
    prev = b.hi;
    covered += b.size();
  }
  EXPECT_EQ(covered, n);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SeqSplitProperty,
    ::testing::Combine(::testing::Values(0, 1, 7, 100, 1023),
                       ::testing::Values(1, 2, 3, 8, 128)));

// -- split_weighted (kStatic's cut of a sized nest) ---------------------------

TEST(SplitWeighted, ReadsAtMostOneWeightPerStratum) {
  // Weight i + 1 over [lo, lo + n): every unit is read once up to
  // kWeightStrata units, never more than kWeightStrata beyond, and the
  // chunks always tile the domain in order.
  for (index_t n : {1, 7, 1000, 1024, 1025, 5000, 100000}) {
    const Seq d{11, 11 + n};
    for (int k : {1, 2, 3, 8}) {
      index_t reads = 0;
      const auto chunks = split_weighted(d, k, [&](index_t i) {
        EXPECT_TRUE(d.contains(i));
        ++reads;
        return i - d.lo + 1;
      });
      EXPECT_EQ(reads, std::min(n, kWeightStrata)) << "n " << n;
      ASSERT_EQ(chunks.size(), static_cast<std::size_t>(k));
      index_t lo = d.lo;
      for (const auto& c : chunks) {
        EXPECT_EQ(c.lo, lo);
        EXPECT_GE(c.hi, c.lo);
        lo = c.hi;
      }
      EXPECT_EQ(lo, d.hi);
    }
  }
}

TEST(SplitWeighted, CutsAtTheBoundaryNearestEachShare) {
  // Weights 1 1 1 1 100 1: half the total (52.5) lies nearer the prefix
  // before unit 4 (4) than after it (104), so the cut is at 4, where
  // split_blocks would cut at 3.
  const auto chunks = split_weighted(
      Seq{0, 6}, 2, [](index_t i) { return index_t{i == 4 ? 100 : 1}; });
  EXPECT_EQ(chunks[0], (Seq{0, 4}));
  EXPECT_EQ(chunks[1], (Seq{4, 6}));
}

// -- degenerate split_blocks shapes (k > extent, empty domains) ---------------

TEST(SplitBlocks, Dim2MoreChunksThanCellsStillPartitions) {
  Dim2 d{0, 2, 0, 2};  // 4 cells, 16 chunks
  auto chunks = split_blocks(d, 16);
  ASSERT_EQ(chunks.size(), 16u);
  index_t covered = 0;
  for (const auto& c : chunks) {
    EXPECT_GE(c.size(), 0);
    covered += c.size();
  }
  EXPECT_EQ(covered, d.size());
}

TEST(SplitBlocks, EmptyDim2YieldsAllEmptyChunks) {
  auto chunks = split_blocks(Dim2{3, 3, 0, 5}, 4);
  ASSERT_EQ(chunks.size(), 4u);
  for (const auto& c : chunks) EXPECT_EQ(c.size(), 0);
}

TEST(SplitBlocks, Dim3MoreChunksThanCellsStillPartitions) {
  Dim3 d{0, 1, 0, 2, 0, 3};  // 6 cells, 12 chunks
  auto chunks = split_blocks(d, 12);
  ASSERT_EQ(chunks.size(), 12u);
  index_t covered = 0;
  std::set<std::tuple<index_t, index_t, index_t>> seen;
  for (const auto& c : chunks) {
    covered += c.size();
    c.for_each([&](Index3 i) {
      EXPECT_TRUE(seen.insert({i.z, i.y, i.x}).second) << "overlap";
    });
  }
  EXPECT_EQ(covered, d.size());
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(d.size()));
}

TEST(SplitBlocks, EmptyDim3YieldsAllEmptyChunks) {
  auto chunks = split_blocks(Dim3{0, 0, 0, 4, 0, 4}, 8);
  ASSERT_EQ(chunks.size(), 8u);
  for (const auto& c : chunks) EXPECT_EQ(c.size(), 0);
}

// -- outer-axis chunking (the scheduler's atom decomposition) -----------------

TEST(OuterSlice, SeqExtentAndSlices) {
  Seq d{10, 30};
  EXPECT_EQ(outer_extent(d), 20);
  EXPECT_EQ(outer_slice(d, 0, 5), (Seq{10, 15}));
  EXPECT_EQ(outer_slice(d, 5, 20), (Seq{15, 30}));
  // Clamped: requests past the extent stop at the boundary.
  EXPECT_EQ(outer_slice(d, 15, 99), (Seq{25, 30}));
  EXPECT_EQ(outer_slice(d, 99, 120), (Seq{30, 30}));
  // Inverted requests collapse to an empty slice anchored at u0.
  EXPECT_EQ(outer_slice(d, 7, 3).size(), 0);
}

TEST(OuterSlice, Dim2SlicesRowsKeepsColumnsWhole) {
  Dim2 d{5, 15, 2, 9};
  EXPECT_EQ(outer_extent(d), 10);
  auto band = outer_slice(d, 3, 6);
  EXPECT_EQ(band, (Dim2{8, 11, 2, 9}));
  EXPECT_EQ(outer_slice(d, 0, 99), d);  // clamped to the full box
  EXPECT_EQ(outer_slice(d, 10, 12).size(), 0);
}

TEST(OuterSlice, Dim3SlicesSlabsKeepsInnerAxesWhole) {
  Dim3 d{1, 5, 0, 3, 0, 2};
  EXPECT_EQ(outer_extent(d), 4);
  auto slab = outer_slice(d, 1, 3);
  EXPECT_EQ(slab, (Dim3{2, 4, 0, 3, 0, 2}));
  EXPECT_EQ(outer_slice(d, 4, 9).size(), 0);
}

TEST(OuterSlice, EmptyDomainsHaveZeroExtent) {
  EXPECT_EQ(outer_extent(Seq{4, 4}), 0);
  EXPECT_EQ(outer_extent(Dim2{2, 2, 0, 9}), 0);
  EXPECT_EQ(outer_extent(Dim3{3, 1, 0, 2, 0, 2}), 0);  // inverted
  EXPECT_EQ(outer_slice(Seq{4, 4}, 0, 1).size(), 0);
}

TEST(OuterSlice, ConsecutiveSlicesPartitionTheDomain) {
  // Chunking [0, extent) by a fixed grain through outer_slice must tile
  // the domain exactly — the invariant the scheduler's atoms rely on.
  Dim2 d{0, 13, 0, 7};
  const index_t grain = 4;  // 13 rows -> atoms of 4,4,4,1
  index_t rows_covered = 0;
  index_t expected_y = d.y0;
  for (index_t u = 0; u < outer_extent(d); u += grain) {
    auto band = outer_slice(d, u, u + grain);
    EXPECT_EQ(band.y0, expected_y);
    EXPECT_EQ(band.x0, d.x0);
    EXPECT_EQ(band.x1, d.x1);
    expected_y = band.y1;
    rows_covered += band.rows();
  }
  EXPECT_EQ(rows_covered, outer_extent(d));
  EXPECT_EQ(expected_y, d.y1);
}

// -- shared grain heuristic (auto_grain_for) ----------------------------------

TEST(AutoGrainFor, PinnedValues) {
  // The one heuristic both runtime::auto_grain (parts = threads) and
  // sched::resolve_grain (parts = ranks) delegate to: aim for ~8 chunks per
  // part, floored at one unit. Pinned so any change announces itself here
  // instead of silently re-chunking every consumer at both levels.
  EXPECT_EQ(auto_grain_for(3200, 4), 100);
  EXPECT_EQ(auto_grain_for(1000, 4), 31);
  EXPECT_EQ(auto_grain_for(64, 0), 8);  // parts floored at 1
  EXPECT_EQ(auto_grain_for(0, 8), 1);   // empty extent still legal
  EXPECT_EQ(auto_grain_for(1, 8), 1);
  EXPECT_EQ(auto_grain_for(5, 8), 1);   // tiny extent floors at 1
  EXPECT_EQ(auto_grain_for(7, 1), 1);
  EXPECT_EQ(auto_grain_for(16, 1), 2);
  EXPECT_EQ(auto_grain_for(1 << 20, 8), (1 << 20) / 64);
}

TEST(AutoGrainFor, BothRuntimeLevelsAgree) {
  // The thread-level and rank-level grain choices were once separate
  // copies of this formula; keep them pinned to the shared helper so they
  // can never drift apart again.
  for (index_t n : {index_t{0}, index_t{1}, index_t{5}, index_t{64},
                    index_t{1000}, index_t{3200}, index_t{100000}}) {
    for (int p : {1, 2, 4, 8, 64}) {
      EXPECT_EQ(runtime::auto_grain(n, p), auto_grain_for(n, p))
          << "n=" << n << " p=" << p;
      EXPECT_EQ(sched::resolve_grain(n, p, 0), auto_grain_for(n, p))
          << "n=" << n << " p=" << p;
    }
  }
}

TEST(AutoGrainFor, GrainTilesTheExtent) {
  // The chosen grain always lies in [1, max(1, extent)], so atom_count is
  // well-defined even for degenerate domains.
  for (index_t n : {index_t{0}, index_t{1}, index_t{7}, index_t{8},
                    index_t{9}, index_t{1023}}) {
    for (int p : {1, 3, 16}) {
      const index_t g = auto_grain_for(n, p);
      EXPECT_GE(g, 1);
      EXPECT_LE(g, std::max<index_t>(1, n));
    }
  }
}

// -- segmented (ragged) domains -----------------------------------------------

namespace {

SegSeq seg_domain(std::vector<index_t> offsets, index_t value_grain) {
  auto cuts = std::make_shared<std::vector<index_t>>(
      segment_cuts(offsets, value_grain));
  auto weights = std::make_shared<const std::vector<index_t>>(
      segment_weights(offsets, *cuts));
  return SegSeq{0, static_cast<index_t>(cuts->size()) - 1, std::move(cuts),
                std::move(weights)};
}

}  // namespace

TEST(SegSeq, SizeContainsOrdinalForEach) {
  // 4 segments with value counts {2, 0, 3, 1}, grouped at grain 3.
  SegSeq d = seg_domain({0, 2, 2, 5, 6}, 3);
  EXPECT_EQ(d.size(), 4);  // size counts segments (the iteration ordinals)
  EXPECT_TRUE(d.contains(0));
  EXPECT_TRUE(d.contains(3));
  EXPECT_FALSE(d.contains(4));
  EXPECT_EQ(d.ordinal(2), 2);
  std::vector<index_t> seen;
  d.for_each([&](index_t s) { seen.push_back(s); });
  EXPECT_EQ(seen, (std::vector<index_t>{0, 1, 2, 3}));
}

TEST(SegmentCuts, ValueBalancedGrouping) {
  // Counts {2, 0, 3, 1} at grain 3: unit 0 closes once it holds >= 3
  // values (segments 0..2 — the empty segment rides along), unit 1 takes
  // the remainder.
  std::vector<index_t> offsets{0, 2, 2, 5, 6};
  EXPECT_EQ(segment_cuts(offsets, 3), (std::vector<index_t>{0, 3, 4}));
  EXPECT_EQ(segment_weights(offsets, segment_cuts(offsets, 3)),
            (std::vector<index_t>{5, 1}));
}

TEST(SegmentCuts, JumboSegmentClosesItsOwnUnit) {
  // A single segment larger than the grain becomes one oversized unit:
  // segments are the correctness atom and never split.
  std::vector<index_t> offsets{0, 1, 101, 102};
  EXPECT_EQ(segment_cuts(offsets, 10), (std::vector<index_t>{0, 2, 3}));
  EXPECT_EQ(segment_weights(offsets, segment_cuts(offsets, 10)),
            (std::vector<index_t>{101, 1}));
}

TEST(SegmentCuts, DegenerateShapesStayValid) {
  // No segments: a single boundary, zero units, empty domain.
  std::vector<index_t> none{0};
  EXPECT_EQ(segment_cuts(none, 4), (std::vector<index_t>{0}));
  EXPECT_EQ(seg_domain({0}, 4).size(), 0);
  // All segments empty: one unit holding every (empty) segment.
  std::vector<index_t> empties{0, 0, 0, 0};
  EXPECT_EQ(segment_cuts(empties, 4), (std::vector<index_t>{0, 3}));
  SegSeq d = seg_domain({0, 0, 0, 0}, 4);
  EXPECT_EQ(outer_extent(d), 1);
  EXPECT_EQ(d.size(), 3);  // three segments, zero values
}

TEST(SplitBlocks, SegSeqCoversWithoutOverlap) {
  SegSeq d = seg_domain({0, 2, 4, 6, 8, 10, 12, 14, 16}, 4);  // 4 units
  auto blocks = split_blocks(d, 3);
  ASSERT_EQ(blocks.size(), 3u);
  std::set<index_t> seen;
  index_t covered = 0;
  for (const auto& b : blocks) {
    covered += b.size();
    b.for_each([&](index_t s) {
      EXPECT_TRUE(seen.insert(s).second) << "overlap at segment " << s;
    });
  }
  EXPECT_EQ(covered, d.size());
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(d.size()));
}

TEST(SplitBlocks, SegSeqFewerUnitsThanChunksStaysValid) {
  // Fewer outer units than ranks: every chunk is a valid window (empty
  // chunks allowed), the non-empty ones partition the domain.
  SegSeq d = seg_domain({0, 5, 9}, 4);  // 2 units
  auto blocks = split_blocks(d, 5);
  ASSERT_EQ(blocks.size(), 5u);
  index_t covered = 0;
  int nonempty = 0;
  for (const auto& b : blocks) {
    EXPECT_GE(b.u1, b.u0);
    EXPECT_LE(b.seg_lo(), b.seg_hi());
    covered += b.size();
    if (b.size() > 0) ++nonempty;
  }
  EXPECT_EQ(covered, d.size());
  EXPECT_EQ(nonempty, 2);
}

TEST(OuterSlice, SegSeqRelativeWindowsAndClamping) {
  SegSeq d = seg_domain({0, 2, 4, 6, 8, 10, 12, 14, 16}, 4);  // 4 units
  EXPECT_EQ(outer_extent(d), 4);
  auto band = outer_slice(d, 1, 3);
  EXPECT_EQ(band.units(), 2);
  EXPECT_EQ(band.seg_lo(), 2);
  EXPECT_EQ(band.seg_hi(), 6);
  // Slices are relative to the window, like every other domain.
  auto inner = outer_slice(band, 1, 2);
  EXPECT_EQ(inner.seg_lo(), 4);
  EXPECT_EQ(inner.seg_hi(), 6);
  // Clamped and inverted windows degrade to valid (possibly empty) slices.
  EXPECT_EQ(outer_slice(d, 2, 99).units(), 2);
  EXPECT_EQ(outer_slice(d, 99, 120).size(), 0);
  EXPECT_EQ(outer_slice(d, 3, 1).size(), 0);
}

TEST(OuterSlice, SegSeqChunksTileLikeSeq) {
  // The scheduler's atom decomposition: fixed-grain outer_slice windows
  // tile the domain exactly, segment-disjoint.
  SegSeq d = seg_domain({0, 1, 4, 4, 9, 10, 16, 18}, 3);
  const index_t extent = outer_extent(d);
  for (index_t grain : {index_t{1}, index_t{2}, index_t{3}}) {
    std::set<index_t> seen;
    for (index_t u = 0; u < extent; u += grain) {
      auto band = outer_slice(d, u, std::min(extent, u + grain));
      band.for_each([&](index_t s) {
        EXPECT_TRUE(seen.insert(s).second) << "overlap at segment " << s;
      });
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(d.size()));
  }
}

TEST(Intersect, SegSeqSharedCutsNarrowsWindow) {
  SegSeq d = seg_domain({0, 2, 4, 6, 8, 10, 12, 14, 16}, 4);
  SegSeq a = outer_slice(d, 0, 3);
  SegSeq b = outer_slice(d, 1, 4);
  SegSeq r = intersect(a, b);
  EXPECT_EQ(r.u0, 1);
  EXPECT_EQ(r.u1, 3);
  // Content-equal windows with distinct cut vectors also intersect.
  SegSeq d2 = seg_domain({0, 2, 4, 6, 8, 10, 12, 14, 16}, 4);
  EXPECT_EQ(intersect(d, d2).units(), d.units());
}

TEST(OuterCostCv, DenseZeroSkewedPositive) {
  EXPECT_EQ(outer_cost_cv(Seq{0, 100}), 0.0);
  EXPECT_EQ(outer_cost_cv(Dim2{0, 4, 0, 4}), 0.0);
  // Uniform per-unit weights: no variance.
  EXPECT_DOUBLE_EQ(outer_cost_cv(seg_domain({0, 2, 4, 6, 8}, 2)), 0.0);
  // One jumbo unit among small ones: material variance.
  EXPECT_GT(outer_cost_cv(seg_domain({0, 1, 2, 3, 103}, 1)), 1.0);
  // Without a weights hint the cv degrades to 0 (dense behavior).
  SegSeq bare = seg_domain({0, 1, 2, 103}, 1);
  bare.weights = nullptr;
  EXPECT_EQ(outer_cost_cv(bare), 0.0);
}

TEST(AutoGrainFor, CostVarianceHintOnlyRefines) {
  // cv <= 0 is the exact dense heuristic — pinned so segmented support
  // cannot shift any dense consumer's grain.
  for (index_t n : {index_t{0}, index_t{64}, index_t{1000}, index_t{3200}}) {
    for (int p : {1, 4, 8}) {
      EXPECT_EQ(auto_grain_for(n, p, 0.0), auto_grain_for(n, p));
      EXPECT_EQ(auto_grain_for(n, p, -1.0), auto_grain_for(n, p));
    }
  }
  // Positive cv targets more, finer chunks — never coarser than dense,
  // always within [1, extent].
  for (double cv : {0.5, 1.0, 3.0, 100.0}) {
    const index_t g = auto_grain_for(3200, 4, cv);
    EXPECT_LE(g, auto_grain_for(3200, 4));
    EXPECT_GE(g, 1);
  }
  // The refinement saturates (clamped at 4x the dense chunk target).
  EXPECT_EQ(auto_grain_for(3200, 4, 100.0), auto_grain_for(3200, 4, 3.0));
}

}  // namespace
}  // namespace triolet::core
