#include "sim/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "net/comm.hpp"
#include "support/macros.hpp"
#include "support/rng.hpp"

namespace triolet::sim {

namespace {

/// Earliest-free-worker list scheduling over tasks in the given order.
double list_schedule(const std::vector<double>& tasks, int workers) {
  TRIOLET_CHECK(workers >= 1, "need at least one worker");
  // Min-heap of worker finish times.
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (int w = 0; w < workers; ++w) free_at.push(0.0);
  double makespan = 0.0;
  for (double d : tasks) {
    double start = free_at.top();
    free_at.pop();
    double finish = start + d;
    makespan = std::max(makespan, finish);
    free_at.push(finish);
  }
  return makespan;
}

}  // namespace

double makespan_dynamic(const std::vector<double>& tasks, int workers) {
  return list_schedule(tasks, workers);
}

double makespan_static_block(const std::vector<double>& tasks, int workers) {
  TRIOLET_CHECK(workers >= 1, "need at least one worker");
  const std::size_t n = tasks.size();
  double makespan = 0.0;
  for (int w = 0; w < workers; ++w) {
    const std::size_t lo = n * static_cast<std::size_t>(w) /
                           static_cast<std::size_t>(workers);
    const std::size_t hi = n * (static_cast<std::size_t>(w) + 1) /
                           static_cast<std::size_t>(workers);
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += tasks[i];
    makespan = std::max(makespan, sum);
  }
  return makespan;
}

double makespan_static_cyclic(const std::vector<double>& tasks, int workers) {
  TRIOLET_CHECK(workers >= 1, "need at least one worker");
  std::vector<double> load(static_cast<std::size_t>(workers), 0.0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    load[i % static_cast<std::size_t>(workers)] += tasks[i];
  }
  double makespan = 0.0;
  for (double l : load) makespan = std::max(makespan, l);
  return makespan;
}

double makespan_lpt(std::vector<double> tasks, int workers) {
  std::sort(tasks.begin(), tasks.end(), std::greater<>());
  return list_schedule(tasks, workers);
}

double makespan_demand(const std::vector<double>& chunks, int workers,
                       double overhead) {
  TRIOLET_CHECK(workers >= 1, "need at least one worker");
  TRIOLET_CHECK(overhead >= 0.0, "overhead must be non-negative");
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (int w = 0; w < workers; ++w) free_at.push(0.0);
  double makespan = 0.0;
  for (double d : chunks) {
    double start = free_at.top();
    free_at.pop();
    double finish = start + overhead + d;
    makespan = std::max(makespan, finish);
    free_at.push(finish);
  }
  return makespan;
}

double makespan_overlap(const std::vector<double>& chunks, int workers,
                        double overhead) {
  TRIOLET_CHECK(workers >= 1, "need at least one worker");
  TRIOLET_CHECK(overhead >= 0.0, "overhead must be non-negative");
  // Heap entries are the time each worker can *start* its next chunk: the
  // first claim waits for the initial request round trip; afterwards the
  // prefetched grant for chunk k+1 arrives at claim_k + overhead, in
  // parallel with chunk k executing until finish_k.
  std::priority_queue<double, std::vector<double>, std::greater<>> ready_at;
  for (int w = 0; w < workers; ++w) ready_at.push(overhead);
  double makespan = 0.0;
  for (double d : chunks) {
    double start = ready_at.top();
    ready_at.pop();
    double finish = start + d;
    makespan = std::max(makespan, finish);
    ready_at.push(std::max(finish, start + overhead));
  }
  return makespan;
}

double total_work(const std::vector<double>& tasks) {
  double sum = 0.0;
  for (double d : tasks) sum += d;
  return sum;
}

double cost_variation(const std::vector<double>& tasks) {
  if (tasks.size() < 2) return 0.0;
  double sum = 0.0;
  for (double d : tasks) sum += d;
  const double mean = sum / static_cast<double>(tasks.size());
  if (mean <= 0.0) return 0.0;
  double var = 0.0;
  for (double d : tasks) var += (d - mean) * (d - mean);
  return std::sqrt(var / static_cast<double>(tasks.size())) / mean;
}

Calibration calibrate_from(const net::CommStats& comm,
                           const net::SchedStats& sched,
                           const runtime::PoolStats& pool) {
  Calibration c;
  c.items = sched.items_executed;
  if (sched.items_executed > 0 && sched.busy_seconds > 0.0) {
    c.seconds_per_item =
        sched.busy_seconds / static_cast<double>(sched.items_executed);
  }
  if (sched.items_executed > 0 && pool.tasks_executed > 0) {
    c.tasks_per_item = static_cast<double>(pool.tasks_executed) /
                       static_cast<double>(sched.items_executed);
  }
  if (sched.granted_items > 0) {
    c.grant_bytes_per_item =
        static_cast<double>(sched.grant_payload_bytes) /
        static_cast<double>(sched.granted_items);
  }
  // Byte coefficient: every delivered byte is copied once into the payload;
  // bytes staged through the serializer's copy stream pay a second pass.
  // The measured zero-copy share interpolates between the two.
  if (comm.bytes_sent > 0) {
    const double copied_frac = static_cast<double>(comm.bytes_copied) /
                               static_cast<double>(comm.bytes_sent);
    c.seconds_per_grant_byte = 0.25e-9 * (1.0 + copied_frac);
  }
  // Latency decomposition needs request/grant traffic; a round without it
  // (kStatic) leaves these at zero and the caller carries forward.
  if (sched.steal_waits > 0 && sched.idle_seconds > 0.0) {
    c.round_trip_seconds =
        sched.idle_seconds / static_cast<double>(sched.steal_waits);
    const double mean_chunk_seconds =
        sched.chunks_executed > 0
            ? sched.busy_seconds / static_cast<double>(sched.chunks_executed)
            : 0.0;
    c.service_delay_seconds =
        std::min(0.5 * mean_chunk_seconds, c.round_trip_seconds);
    const double mean_grant_bytes =
        sched.grants_received > 0
            ? static_cast<double>(sched.grant_payload_bytes) /
                  static_cast<double>(sched.grants_received)
            : 0.0;
    c.latency_seconds =
        std::max(0.0, c.round_trip_seconds - c.service_delay_seconds -
                          mean_grant_bytes * c.seconds_per_grant_byte);
  }
  return c;
}

std::vector<double> StragglerModel::apply(std::vector<double> tasks,
                                          std::uint64_t salt) const {
  if (probability <= 0.0 || slowdown <= 1.0) return tasks;
  Xoshiro256 rng(seed ^ (salt * 0x9e3779b97f4a7c15ull));
  for (double& d : tasks) {
    if (rng.uniform() < probability) d *= slowdown;
  }
  return tasks;
}

}  // namespace triolet::sim
