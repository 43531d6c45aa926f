#pragma once

// sgemm (paper §4.3): scaled dense matrix product C = alpha * A * B.
//
// All parallel variants transpose B first so the inner dot product walks
// contiguous rows, then use a 2D block decomposition that "sends each worker
// only the input matrix rows that it needs to compute its output block".
// In Triolet that decomposition is the two-line rows/outerproduct program of
// paper §2; in the low-level variant it is explicit send/recv code; the Eden
// variant transposes sequentially (its distributed transpose does too little
// work per byte to pay off, §4.3) and fails outright when its runtime cannot
// buffer the in-flight matrix data (reproduced via the farm buffer cap).

#include "apps/driver.hpp"
#include "array/array.hpp"
#include "core/hints.hpp"
#include "net/comm.hpp"

namespace triolet::apps {

struct SgemmProblem {
  Array2<float> a;  // n x k
  Array2<float> b;  // k x m
  float alpha = 1.0f;

  index_t n() const { return a.rows(); }
  index_t k() const { return a.cols(); }
  index_t m() const { return b.cols(); }
};

SgemmProblem make_sgemm(index_t n, index_t k, index_t m, std::uint64_t seed);

double sgemm_rel_error(const Array2<float>& ref, const Array2<float>& got);

Array2<float> sgemm_seq_c(const SgemmProblem& p);
Array2<float> sgemm_triolet(const SgemmProblem& p, core::ParHint hint);
Array2<float> sgemm_triolet_dist(net::Comm& comm, const SgemmProblem& p);
Array2<float> sgemm_eden_seq(const SgemmProblem& p);
Array2<float> sgemm_eden_farm(net::Comm& comm, const SgemmProblem& p);
Array2<float> sgemm_lowlevel(const SgemmProblem& p);
Array2<float> sgemm_lowlevel_dist(net::Comm& comm, const SgemmProblem& p);

struct SgemmMeasured {
  double seq_c = 0, seq_triolet = 0, seq_eden = 0;
  MeasuredSystem triolet, lowlevel, eden;
};
SgemmMeasured measure_sgemm(const SgemmProblem& p, index_t units);

}  // namespace triolet::apps
