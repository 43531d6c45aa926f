#pragma once

// The Triolet service layer: a resident multi-job cluster.
//
// Cluster::run is run-to-completion — every skeleton program pays cluster
// construction, per-rank thread-pool spawn, and a cold slice cache, and two
// programs can never overlap. The JobManager turns that substrate into a
// server: one ClusterState, one work-stealing pool per rank, and one
// manager-owned Residency per rank stay alive across jobs, and many jobs
// run *concurrently* against them:
//
//   admission    submit() enqueues a job body; the queue is bounded
//                (ServiceOptions::max_queued), so submit blocks for space —
//                backpressure — while try_submit rejects instead. A
//                dispatcher thread launches up to max_concurrent job groups
//                at a time.
//   isolation    each group leases one tag band from the BandAllocator and
//                runs its ranks on Comms whose TagMap folds the whole
//                canonical tag space into the lease, so concurrent jobs'
//                traffic can never cross-match. A failing job raises its
//                group's private abort flag (not the cluster's), so only
//                that group's blocked receives unwind; the band is purged
//                and reclaimed afterwards.
//   fair share   every job is registered with the GrantArbiter; job bodies
//                opt their run_chunks calls in via
//                JobContext::sched_options(), which installs the job's
//                grant gate. Grant issue order across jobs then follows
//                weighted deficit round-robin instead of arrival order.
//   batching     jobs submitted with the same nonzero batch_key coalesce
//                (up to batch_limit) into one group: one band lease, one
//                set of rank threads and Comms, bodies run sequentially.
//                Small same-shape jobs amortize the per-group spawn cost —
//                the dominant cost of a short job — across the batch.
//   accounting   each job's JobResult carries the summed-over-ranks
//                CommStats *delta* of exactly its own execution
//                (snapshot_stats subtraction), its queue and run times, and
//                its fair-share counters; the manager aggregates
//                service-wide ServiceStats.
//
// Determinism: batching, fair-share gating, and cross-job cache sharing
// leave each job's atom decomposition and combine order untouched, so a
// kOrdered job's result is bitwise identical to the same job run alone
// (tests/test_svc.cpp asserts this under a concurrent mix).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/comm.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/policy.hpp"
#include "support/timing.hpp"
#include "svc/band_allocator.hpp"
#include "svc/fair_share.hpp"

namespace triolet::svc {

struct ServiceOptions {
  int nranks = 4;
  /// Workers in each rank's resident thread pool.
  int threads_per_rank = 1;
  /// Job groups running at once; also bounds live band leases.
  int max_concurrent = 3;
  /// Admission-queue depth: submit() blocks (try_submit rejects) beyond it.
  int max_queued = 64;
  /// Most jobs one batch group may coalesce.
  int batch_limit = 8;
  /// Fair-share DRR quantum, in outer-domain units per rotation.
  std::int64_t quantum_items = 1 << 12;
  /// Per-rank resident slice-cache budget; the default sentinel defers to
  /// net::slice_cache_budget() (env TRIOLET_SLICE_CACHE_BYTES).
  std::size_t slice_cache_bytes = ~std::size_t{0};
};

/// Service-wide counters (coherent after drain(); approximate while jobs
/// are in flight).
struct ServiceStats {
  std::int64_t submitted = 0;     // jobs accepted into the queue
  std::int64_t rejected = 0;      // try_submit refusals (queue full)
  std::int64_t dispatched = 0;    // jobs handed to a group
  std::int64_t completed = 0;     // jobs that finished ok
  std::int64_t failed = 0;        // jobs that errored or were skipped
  std::int64_t batches = 0;       // groups that coalesced > 1 job
  std::int64_t batched_jobs = 0;  // jobs that rode in such groups
  int peak_concurrent = 0;        // max simultaneously running groups
  std::int64_t bands_leased = 0;  // lifetime band leases
  /// Aggregated over the manager-owned per-rank slice caches.
  net::ResidencyStats residency{};
};

struct JobOptions {
  std::string name;
  /// Fair-share weight (credit per DRR rotation scales linearly).
  int weight = 1;
  /// Nonzero: queued jobs with the same key may share one group (band,
  /// rank threads, Comms), running sequentially. 0 = never batched.
  std::uint64_t batch_key = 0;
};

struct JobResult {
  bool ok = false;
  std::string error;
  /// Summed-over-ranks CommStats delta of exactly this job's execution.
  net::CommStats stats;
  double queued_seconds = 0.0;  // submit -> dispatch
  double run_seconds = 0.0;     // max over ranks of the body's wall time
  std::uint64_t job_id = 0;
  int band_base = 0;            // the group's leased band
  int batched_with = 0;         // other jobs that shared the group
  FairShareStats fair_share;
};

class JobManager;

/// What a job body receives on every rank: its Comm (band-mapped, shared
/// residency) plus the job identity and the fair-share hookup.
class JobContext {
 public:
  net::Comm& comm() { return *comm_; }
  int rank() const { return comm_->rank(); }
  int size() const { return comm_->size(); }
  std::uint64_t job_id() const { return id_; }
  const std::string& name() const { return *name_; }

  /// `base` with this job's grant gate installed: run_chunks calls made
  /// with these options arbitrate their grants through the service's
  /// fair-share scheduler. Safe (and a no-op) on non-root ranks.
  sched::SchedOptions sched_options(sched::SchedOptions base = {}) {
    base.gate = &gate_;
    return base;
  }

 private:
  friend class JobManager;
  JobContext(net::Comm* comm, std::uint64_t id, const std::string* name,
             GrantArbiter* arbiter)
      : comm_(comm), id_(id), name_(name), gate_(arbiter, id) {}

  net::Comm* comm_;
  std::uint64_t id_;
  const std::string* name_;
  JobGate gate_;
};

/// One rank's view of a job: called on every rank of the group, SPMD.
using JobBody = std::function<void(JobContext&)>;

namespace detail {

struct JobState {
  std::uint64_t id = 0;
  JobOptions opts;
  JobBody body;
  Stopwatch queued;  // started at submit

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  JobResult result;
};

}  // namespace detail

/// Waitable handle to one submitted job.
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return state_ != nullptr; }
  bool done() const;

  /// Blocks until the job finishes and returns its result.
  JobResult wait();

 private:
  friend class JobManager;
  explicit JobHandle(std::shared_ptr<detail::JobState> s)
      : state_(std::move(s)) {}

  std::shared_ptr<detail::JobState> state_;
};

class JobManager {
 public:
  explicit JobManager(ServiceOptions options = {});
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Enqueues a job; blocks while the admission queue is full
  /// (backpressure). `body` runs SPMD on every rank of the job's group.
  JobHandle submit(JobOptions opts, JobBody body);

  /// Non-blocking admission: nullopt (and ServiceStats::rejected) when the
  /// queue is full.
  std::optional<JobHandle> try_submit(JobOptions opts, JobBody body);

  /// Blocks until every accepted job has finished.
  void drain();

  /// drain() + stop the dispatcher and join every group. Idempotent; the
  /// destructor calls it.
  void shutdown();

  ServiceStats stats() const;
  const ServiceOptions& options() const { return opts_; }
  int bands_in_use() const { return bands_.leased(); }
  GrantArbiter& arbiter() { return arbiter_; }

 private:
  void dispatcher_main();
  void run_group(net::TagMap band,
                 std::vector<std::shared_ptr<detail::JobState>> jobs);

  ServiceOptions opts_;
  net::ClusterState state_;
  std::vector<std::unique_ptr<runtime::ThreadPool>> pools_;
  /// Stats sinks must outlive the Residency objects that point at them.
  std::vector<std::unique_ptr<net::ResidencyStats>> residency_sinks_;
  std::vector<std::unique_ptr<net::Residency>> residency_;
  BandAllocator bands_;
  GrantArbiter arbiter_;

  mutable std::mutex mu_;
  std::condition_variable cv_dispatch_;  // dispatcher: work or a free slot
  std::condition_variable cv_space_;     // submitters waiting on queue room
  std::condition_variable cv_drain_;     // drain() waiting for inflight == 0
  std::deque<std::shared_ptr<detail::JobState>> queue_;
  /// Live group threads, keyed by their first job's id. A finishing group
  /// lists its key in finished_groups_; the dispatcher joins those before
  /// it launches the next group, and shutdown() joins the rest.
  std::unordered_map<std::uint64_t, std::thread> group_threads_;
  std::vector<std::uint64_t> finished_groups_;
  ServiceStats stats_;
  std::uint64_t next_job_id_ = 1;
  int running_ = 0;        // live job groups
  std::int64_t inflight_ = 0;  // accepted jobs not yet finished
  bool stopping_ = false;

  std::thread dispatcher_;
};

}  // namespace triolet::svc
