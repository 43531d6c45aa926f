#pragma once

// SPMD cluster launcher.
//
// `Cluster::run` spawns one thread per rank, hands each a Comm, and joins
// them. Ranks exchange data exclusively through serialized messages, so
// this substrate exercises the same partitioning/serialization code paths a
// multi-node MPI run would (the substitution is documented in DESIGN.md).
//
// Failure semantics: if any rank throws, the cluster aborts — blocked
// receivers wake with ClusterAborted — and the first root-cause error is
// reported in the result. This models job failure on a real cluster and is
// how the Eden sgemm buffer-overflow result (paper §4.3) is reproduced.

#include <functional>
#include <string>

#include "net/comm.hpp"

namespace triolet::net {

struct ClusterResult {
  bool ok = true;
  std::string error;  // first root-cause error when !ok

  /// Aggregate traffic over all ranks.
  CommStats total_stats;
};

class Cluster {
 public:
  /// Runs `body(comm)` on `nranks` SPMD rank threads and joins them.
  /// `options` configures the data plane: bounded message buffers and the
  /// eager/rendezvous threshold (net/transport.hpp).
  static ClusterResult run(int nranks, const std::function<void(Comm&)>& body,
                           const TransportOptions& options = {});
};

}  // namespace triolet::net
