// Cross-variant validation for the four Parboil-derived benchmarks: every
// implementation (sequential C, Triolet local/threaded/distributed, Eden
// sequential/farm, low-level threaded/distributed) of each benchmark must
// produce the same answer on the same inputs.

#include <gtest/gtest.h>

#include "apps/cutcp.hpp"
#include "apps/mriq.hpp"
#include "apps/sgemm.hpp"
#include "apps/tpacf.hpp"
#include "dist/skeletons.hpp"
#include "net/cluster.hpp"

namespace triolet::apps {
namespace {

constexpr double kTol = 2e-4;  // float kernels, different summation orders

// ---------------------------------------------------------------- mri-q --

class MriqVariants : public ::testing::Test {
 protected:
  MriqProblem p = make_mriq(600, 150, 42);
  MriqResult ref = mriq_seq_c(p);
};

TEST_F(MriqVariants, TrioletSeqMatchesC) {
  EXPECT_LT(mriq_rel_error(ref, mriq_triolet(p, core::ParHint::kSeq)), kTol);
}

TEST_F(MriqVariants, TrioletLocalparMatchesC) {
  EXPECT_LT(mriq_rel_error(ref, mriq_triolet(p, core::ParHint::kLocal)), kTol);
}

TEST_F(MriqVariants, EdenSeqMatchesC) {
  EXPECT_LT(mriq_rel_error(ref, mriq_eden_seq(p)), kTol);
}

TEST_F(MriqVariants, LowlevelThreadedMatchesC) {
  EXPECT_LT(mriq_rel_error(ref, mriq_lowlevel(p)), kTol);
}

TEST_F(MriqVariants, TrioletDistMatchesC) {
  MriqResult got;
  auto res = net::Cluster::run(3, [&](net::Comm& c) {
    dist::NodeRuntime node(2);
    auto r = mriq_triolet_dist(c, p);
    if (c.rank() == 0) got = std::move(r);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_LT(mriq_rel_error(ref, got), kTol);
}

TEST_F(MriqVariants, EdenFarmMatchesC) {
  MriqResult got;
  auto res = net::Cluster::run(3, [&](net::Comm& c) {
    auto r = mriq_eden_farm(c, p);
    if (c.rank() == 0) got = std::move(r);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_LT(mriq_rel_error(ref, got), kTol);
}

TEST_F(MriqVariants, LowlevelDistMatchesC) {
  MriqResult got;
  auto res = net::Cluster::run(4, [&](net::Comm& c) {
    dist::NodeRuntime node(2);
    auto r = mriq_lowlevel_dist(c, p);
    if (c.rank() == 0) got = std::move(r);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_LT(mriq_rel_error(ref, got), kTol);
}

// ---------------------------------------------------------------- sgemm --

class SgemmVariants : public ::testing::Test {
 protected:
  SgemmProblem p = make_sgemm(40, 24, 32, 43);
  Array2<float> ref = sgemm_seq_c(p);
};

TEST_F(SgemmVariants, TrioletSeqMatchesC) {
  EXPECT_LT(sgemm_rel_error(ref, sgemm_triolet(p, core::ParHint::kSeq)), kTol);
}

TEST_F(SgemmVariants, TrioletLocalparMatchesC) {
  EXPECT_LT(sgemm_rel_error(ref, sgemm_triolet(p, core::ParHint::kLocal)),
            kTol);
}

TEST_F(SgemmVariants, EdenSeqMatchesC) {
  EXPECT_LT(sgemm_rel_error(ref, sgemm_eden_seq(p)), kTol);
}

TEST_F(SgemmVariants, LowlevelThreadedMatchesC) {
  EXPECT_LT(sgemm_rel_error(ref, sgemm_lowlevel(p)), kTol);
}

TEST_F(SgemmVariants, TrioletDistMatchesC) {
  Array2<float> got;
  auto res = net::Cluster::run(4, [&](net::Comm& c) {
    dist::NodeRuntime node(2);
    auto r = sgemm_triolet_dist(c, p);
    if (c.rank() == 0) got = std::move(r);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_LT(sgemm_rel_error(ref, got), kTol);
}

TEST_F(SgemmVariants, EdenFarmMatchesC) {
  Array2<float> got;
  auto res = net::Cluster::run(3, [&](net::Comm& c) {
    auto r = sgemm_eden_farm(c, p);
    if (c.rank() == 0) got = std::move(r);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_LT(sgemm_rel_error(ref, got), kTol);
}

TEST_F(SgemmVariants, EdenFarmFailsUnderBoundedBuffer) {
  // The paper's §4.3 observation reproduced functionally: with a bounded
  // message buffer, shipping whole matrices kills the job.
  net::TransportOptions opts;
  opts.max_message_bytes = 512;
  auto res = net::Cluster::run(
      3, [&](net::Comm& c) { (void)sgemm_eden_farm(c, p); }, opts);
  EXPECT_FALSE(res.ok);
}

TEST_F(SgemmVariants, LowlevelDistMatchesC) {
  Array2<float> got;
  auto res = net::Cluster::run(4, [&](net::Comm& c) {
    dist::NodeRuntime node(2);
    auto r = sgemm_lowlevel_dist(c, p);
    if (c.rank() == 0) got = std::move(r);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_LT(sgemm_rel_error(ref, got), kTol);
}

// ---------------------------------------------------------------- tpacf --

class TpacfVariants : public ::testing::Test {
 protected:
  TpacfProblem p = make_tpacf(80, 3, 16, 44);
  TpacfHist ref = tpacf_seq_c(p);
};

TEST_F(TpacfVariants, HistogramHasAllPairs) {
  // DD + R*(DR + RR) pair counts must land somewhere.
  const index_t n = p.points();
  std::int64_t dd = 0, dr = 0, rr = 0;
  for (index_t b = 0; b < p.nbins; ++b) {
    dd += ref[b];
    dr += ref[p.nbins + b];
    rr += ref[2 * p.nbins + b];
  }
  EXPECT_EQ(dd, n * (n - 1) / 2);
  EXPECT_EQ(dr, p.sets() * n * n);
  EXPECT_EQ(rr, p.sets() * (n * (n - 1) / 2));
}

TEST_F(TpacfVariants, TrioletSeqMatchesC) {
  EXPECT_EQ(tpacf_triolet(p, core::ParHint::kSeq), ref);
}

TEST_F(TpacfVariants, TrioletLocalparMatchesC) {
  EXPECT_EQ(tpacf_triolet(p, core::ParHint::kLocal), ref);
}

TEST_F(TpacfVariants, EdenSeqMatchesC) {
  EXPECT_EQ(tpacf_eden_seq(p), ref);
}

TEST_F(TpacfVariants, LowlevelThreadedMatchesC) {
  EXPECT_EQ(tpacf_lowlevel(p), ref);
}

TEST_F(TpacfVariants, TrioletDistMatchesC) {
  TpacfHist got;
  auto res = net::Cluster::run(4, [&](net::Comm& c) {
    dist::NodeRuntime node(2);
    auto r = tpacf_triolet_dist(c, p);
    if (c.rank() == 0) got = std::move(r);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(got, ref);
}

TEST_F(TpacfVariants, Fig6DatasetParallelDistMatchesC) {
  TpacfHist got;
  auto res = net::Cluster::run(3, [&](net::Comm& c) {
    dist::NodeRuntime node(2);
    auto r = tpacf_triolet_dist_fig6(c, p);
    if (c.rank() == 0) got = std::move(r);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(got, ref);
}

TEST_F(TpacfVariants, EdenFarmMatchesC) {
  TpacfHist got;
  auto res = net::Cluster::run(3, [&](net::Comm& c) {
    auto r = tpacf_eden_farm(c, p);
    if (c.rank() == 0) got = std::move(r);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(got, ref);
}

TEST_F(TpacfVariants, LowlevelDistMatchesC) {
  TpacfHist got;
  auto res = net::Cluster::run(5, [&](net::Comm& c) {
    dist::NodeRuntime node(2);
    auto r = tpacf_lowlevel_dist(c, p);
    if (c.rank() == 0) got = std::move(r);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(got, ref);
}

// ---------------------------------------------------------------- cutcp --

class CutcpVariants : public ::testing::Test {
 protected:
  CutcpProblem p = make_cutcp(120, 12, 12, 12, 2.0f, 45);
  CutcpGrid ref = cutcp_seq_c(p);
};

TEST_F(CutcpVariants, GridHasNonTrivialPotential) {
  double mass = 0;
  for (index_t i = 0; i < ref.size(); ++i) mass += std::abs(ref[i]);
  EXPECT_GT(mass, 0.0);
}

TEST_F(CutcpVariants, TrioletSeqMatchesC) {
  EXPECT_LT(cutcp_rel_error(ref, cutcp_triolet(p, core::ParHint::kSeq)), kTol);
}

TEST_F(CutcpVariants, TrioletLocalparMatchesC) {
  EXPECT_LT(cutcp_rel_error(ref, cutcp_triolet(p, core::ParHint::kLocal)),
            kTol);
}

TEST_F(CutcpVariants, EdenSeqMatchesC) {
  EXPECT_LT(cutcp_rel_error(ref, cutcp_eden_seq(p)), kTol);
}

TEST_F(CutcpVariants, LowlevelThreadedMatchesC) {
  EXPECT_LT(cutcp_rel_error(ref, cutcp_lowlevel(p)), kTol);
}

TEST_F(CutcpVariants, TrioletDistMatchesC) {
  CutcpGrid got;
  auto res = net::Cluster::run(4, [&](net::Comm& c) {
    dist::NodeRuntime node(2);
    auto r = cutcp_triolet_dist(c, p);
    if (c.rank() == 0) got = std::move(r);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_LT(cutcp_rel_error(ref, got), kTol);
}

TEST_F(CutcpVariants, EdenFarmMatchesC) {
  CutcpGrid got;
  auto res = net::Cluster::run(3, [&](net::Comm& c) {
    auto r = cutcp_eden_farm(c, p);
    if (c.rank() == 0) got = std::move(r);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_LT(cutcp_rel_error(ref, got), kTol);
}

TEST_F(CutcpVariants, LowlevelDistMatchesC) {
  CutcpGrid got;
  auto res = net::Cluster::run(4, [&](net::Comm& c) {
    dist::NodeRuntime node(2);
    auto r = cutcp_lowlevel_dist(c, p);
    if (c.rank() == 0) got = std::move(r);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_LT(cutcp_rel_error(ref, got), kTol);
}

// Parameterized: Triolet dist variants stay correct across node counts.
class AppsNodes : public ::testing::TestWithParam<int> {};

TEST_P(AppsNodes, MriqTrioletDistScalesFunctionally) {
  MriqProblem p = make_mriq(300, 80, 46);
  MriqResult ref = mriq_seq_c(p);
  MriqResult got;
  auto res = net::Cluster::run(GetParam(), [&](net::Comm& c) {
    dist::NodeRuntime node(1);
    auto r = mriq_triolet_dist(c, p);
    if (c.rank() == 0) got = std::move(r);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_LT(mriq_rel_error(ref, got), kTol);
}

TEST_P(AppsNodes, TpacfTrioletDistScalesFunctionally) {
  // The pair nest's static blocks are cut by pair count, so rank boundaries
  // fall inside the DR and RR jobs; the histogram stays exact.
  TpacfProblem p = make_tpacf(70, 3, 16, 48);
  TpacfHist ref = tpacf_seq_c(p);
  TpacfHist got;
  auto res = net::Cluster::run(GetParam(), [&](net::Comm& c) {
    dist::NodeRuntime node(1);
    auto r = tpacf_triolet_dist(c, p);
    if (c.rank() == 0) got = std::move(r);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(got, ref);
}

TEST_P(AppsNodes, CutcpTrioletDistScalesFunctionally) {
  CutcpProblem p = make_cutcp(60, 10, 10, 10, 1.75f, 47);
  CutcpGrid ref = cutcp_seq_c(p);
  CutcpGrid got;
  auto res = net::Cluster::run(GetParam(), [&](net::Comm& c) {
    dist::NodeRuntime node(1);
    auto r = cutcp_triolet_dist(c, p);
    if (c.rank() == 0) got = std::move(r);
  });
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_LT(cutcp_rel_error(ref, got), kTol);
}

INSTANTIATE_TEST_SUITE_P(Nodes, AppsNodes, ::testing::Values(1, 2, 5, 8));

}  // namespace
}  // namespace triolet::apps
