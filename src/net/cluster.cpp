#include "net/cluster.hpp"

#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "net/tags.hpp"
#include "support/macros.hpp"

namespace triolet::net {

ClusterResult Cluster::run(int nranks, const std::function<void(Comm&)>& body,
                           const ClusterOptions& options) {
  // Startup audit: every reserved tag band (user, scheduler, async-progress,
  // group relay, collectives) must be pairwise disjoint, or wildcard-free
  // matching could steal another subsystem's messages.
  assert_tag_bands_disjoint();
  ClusterState state(nranks, TransportOptions{
                                 .max_message_bytes = options.max_message_bytes,
                                 .eager_bytes = options.eager_bytes,
                             });

  std::mutex result_mu;
  ClusterResult result;

  auto rank_main = [&](int rank) {
    Comm comm(rank, &state);
    try {
      body(comm);
      // Drain queued isends so a fire-and-forget error surfaces as a rank
      // failure rather than vanishing with the progress engine.
      comm.flush_async();
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
    // Quiesce before reading stats: the progress engine may still be
    // retiring cancelled ops after an abort.
    comm.quiesce();
    std::lock_guard<std::mutex> lock(result_mu);
    result.total_stats += comm.stats();
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back(rank_main, r);
  }
  for (auto& t : threads) t.join();
  return result;
}

CommStats Cluster::run_or_abort(int nranks,
                                const std::function<void(Comm&)>& body,
                                const ClusterOptions& options) {
  ClusterResult r = run(nranks, body, options);
  TRIOLET_CHECK(r.ok, r.error.c_str());
  return r.total_stats;
}

}  // namespace triolet::net
