#pragma once

// Canonical benchmark inputs shared by all figure harnesses.
//
// The paper chose Parboil data sets with a sequential-C time of 20-200 s;
// this reproduction scales each problem down so a full figure regenerates in
// seconds, its units measured one at a time (see DESIGN.md, substitutions).
// The compute-to-communication ratio stays representative because message
// sizes scale with the same inputs the tasks process.

#include "apps/cutcp.hpp"
#include "apps/mriq.hpp"
#include "apps/sgemm.hpp"
#include "apps/tpacf.hpp"

namespace triolet::bench {

inline apps::MriqProblem mriq_problem() {
  return apps::make_mriq(/*pixels=*/4096, /*samples=*/384, /*seed=*/0xA1);
}
inline constexpr apps::index_t kMriqUnits = 512;

inline apps::SgemmProblem sgemm_problem() {
  return apps::make_sgemm(/*n=*/384, /*k=*/384, /*m=*/384, /*seed=*/0xA2);
}
inline constexpr apps::index_t kSgemmUnits = 192;

inline apps::TpacfProblem tpacf_problem() {
  return apps::make_tpacf(/*points=*/768, /*random_sets=*/4, /*nbins=*/32,
                          /*seed=*/0xA3);
}
inline constexpr apps::index_t kTpacfUnits = 2048;

inline apps::CutcpProblem cutcp_problem() {
  return apps::make_cutcp(/*atoms=*/12000, /*nx=*/40, /*ny=*/40, /*nz=*/40,
                          /*cutoff=*/2.5f, /*seed=*/0xA4);
}
inline constexpr apps::index_t kCutcpUnits = 500;

/// The paper's machine: 8 nodes x 16 cores.
inline constexpr int kNodes = 8;
inline constexpr int kCoresPerNode = 16;

}  // namespace triolet::bench
