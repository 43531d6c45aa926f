#include "net/cluster.hpp"

#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "net/tags.hpp"

namespace triolet::net {

ClusterResult Cluster::run(int nranks, const std::function<void(Comm&)>& body,
                           const TransportOptions& options) {
  // Startup audit: every reserved tag band (user, scheduler, residency,
  // collectives) must be pairwise disjoint, or wildcard-free matching could
  // steal another subsystem's messages.
  assert_tag_bands_disjoint();
  ClusterState state(nranks, options);

  std::mutex result_mu;
  ClusterResult result;

  auto rank_main = [&](int rank) {
    Comm comm(rank, &state);
    try {
      body(comm);
    } catch (const ClusterAborted&) {
      // Secondary failure: this rank was blocked when a peer died.
    } catch (const std::exception& e) {
      {
        std::lock_guard<std::mutex> lock(result_mu);
        if (result.ok) {
          result.ok = false;
          result.error = e.what();
        }
      }
      state.abort_all();
    }
    std::lock_guard<std::mutex> lock(result_mu);
    result.total_stats += comm.snapshot_stats();
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back(rank_main, r);
  }
  for (auto& t : threads) t.join();
  return result;
}

}  // namespace triolet::net
