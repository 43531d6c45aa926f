#pragma once

// Flat process farm: Eden's work-distribution model.
//
// Eden "presents a flat view of parallelism where all cores are equally
// remote from one another" (§2): processes never share memory — even two
// processes on the same node exchange serialized messages — and the baseline
// skeleton library has "the main process directly communicat[ing] with all
// other processes" (§4.1). This farm reproduces both properties on the
// net:: substrate: the master (rank 0) sends every worker its whole task
// input as one message and collects every result itself.
//
// Task payloads cross the wire even though ranks share an address space, so
// the farm exhibits Eden's real communication volume, including the bounded
// message buffer failure mode (configure via TransportOptions).

#include <functional>
#include <vector>

#include "net/comm.hpp"
#include "support/macros.hpp"

namespace triolet::eden {

inline constexpr int kTagFarmTask = 200;
inline constexpr int kTagFarmResult = 201;
inline constexpr int kTagFarmDone = 202;

/// SPMD farm body. The master holds `tasks` (ignored on workers), sends task
/// i to worker (i mod (size-1)) + 1, and returns results in task order (on
/// the master; workers return an empty vector). `worker` maps In -> Out.
/// With a single rank the master computes everything itself.
template <typename In, typename Out, typename Worker>
std::vector<Out> farm(net::Comm& comm, const std::vector<In>& tasks,
                      Worker&& worker) {
  const int p = comm.size();
  if (p == 1) {
    std::vector<Out> out;
    out.reserve(tasks.size());
    for (const In& t : tasks) out.push_back(worker(t));
    return out;
  }

  const int workers = p - 1;
  if (comm.rank() == 0) {
    // Master: one message per task, round-robin; no slicing intelligence.
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      int w = static_cast<int>(i % static_cast<std::size_t>(workers)) + 1;
      comm.send(w, kTagFarmTask, tasks[i]);
    }
    for (int w = 1; w <= workers; ++w) {
      comm.send_bytes(w, kTagFarmDone, {});  // end-of-stream
    }
    std::vector<Out> results(tasks.size());
    // Collect in task order; the master is the single collection point.
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      int w = static_cast<int>(i % static_cast<std::size_t>(workers)) + 1;
      results[i] = comm.recv<Out>(w, kTagFarmResult);
    }
    return results;
  }

  // Worker: process the task stream until the end-of-stream tag. Matching
  // with a wildcard tag takes the earliest queued message, and the master
  // sends the terminator after every task, so tasks always drain first.
  for (;;) {
    auto msg = comm.recv_message(0, net::kAnyTag);
    if (msg.tag == kTagFarmDone) break;
    TRIOLET_ASSERT(msg.tag == kTagFarmTask);
    In task = serial::from_bytes<In>(msg.payload);
    comm.send(0, kTagFarmResult, worker(task));
  }
  return {};
}

}  // namespace triolet::eden
