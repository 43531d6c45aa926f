#include "svc/job_manager.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "net/message.hpp"
#include "net/tags.hpp"
#include "support/macros.hpp"

namespace triolet::svc {

bool JobHandle::done() const {
  TRIOLET_CHECK(valid(), "done() on an empty JobHandle");
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

JobResult JobHandle::wait() {
  TRIOLET_CHECK(valid(), "wait() on an empty JobHandle");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->result;
}

JobManager::JobManager(ServiceOptions options) : opts_(options) {
  TRIOLET_CHECK(opts_.nranks >= 1, "service needs at least one rank");
  TRIOLET_CHECK(opts_.threads_per_rank >= 1,
                "service needs at least one pool worker per rank");
  TRIOLET_CHECK(opts_.max_queued >= 1, "admission queue must hold a job");
  TRIOLET_CHECK(opts_.batch_limit >= 1, "batch limit must be positive");
  TRIOLET_CHECK(opts_.max_concurrent >= 1,
                "service needs at least one concurrent group");
  // Same startup audit Cluster::run performs: the reserved bands must be
  // pairwise disjoint.
  net::assert_tag_bands_disjoint();
  slots_.resize(static_cast<std::size_t>(opts_.max_concurrent));
  slot_busy_.assign(slots_.size(), false);

  const std::size_t budget = opts_.slice_cache_bytes == ~std::size_t{0}
                                 ? net::slice_cache_budget()
                                 : opts_.slice_cache_bytes;
  pools_.reserve(static_cast<std::size_t>(opts_.nranks));
  residency_sinks_.reserve(static_cast<std::size_t>(opts_.nranks));
  residency_.reserve(static_cast<std::size_t>(opts_.nranks));
  for (int r = 0; r < opts_.nranks; ++r) {
    pools_.push_back(
        std::make_unique<runtime::ThreadPool>(opts_.threads_per_rank));
    residency_sinks_.push_back(std::make_unique<net::ResidencyStats>());
    residency_.push_back(
        std::make_unique<net::Residency>(budget, residency_sinks_.back().get()));
  }
  dispatcher_ = std::thread([this] { dispatcher_main(); });
}

JobManager::~JobManager() { shutdown(); }

JobHandle JobManager::submit(JobOptions opts, JobBody body) {
  auto js = std::make_shared<detail::JobState>();
  std::unique_lock<std::mutex> lock(mu_);
  TRIOLET_CHECK(!stopping_, "submit after shutdown");
  cv_space_.wait(lock, [&] {
    return static_cast<int>(queue_.size()) < opts_.max_queued || stopping_;
  });
  TRIOLET_CHECK(!stopping_, "service shut down while a submit was blocked");
  js->id = next_job_id_++;
  js->opts = std::move(opts);
  js->body = std::move(body);
  js->queued.reset();
  queue_.push_back(js);
  stats_.submitted += 1;
  inflight_ += 1;
  cv_dispatch_.notify_all();
  return JobHandle(js);
}

std::optional<JobHandle> JobManager::try_submit(JobOptions opts, JobBody body) {
  auto js = std::make_shared<detail::JobState>();
  std::lock_guard<std::mutex> lock(mu_);
  TRIOLET_CHECK(!stopping_, "submit after shutdown");
  if (static_cast<int>(queue_.size()) >= opts_.max_queued) {
    stats_.rejected += 1;
    return std::nullopt;
  }
  js->id = next_job_id_++;
  js->opts = std::move(opts);
  js->body = std::move(body);
  js->queued.reset();
  queue_.push_back(js);
  stats_.submitted += 1;
  inflight_ += 1;
  cv_dispatch_.notify_all();
  return JobHandle(js);
}

void JobManager::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_drain_.wait(lock, [&] { return inflight_ == 0; });
}

void JobManager::shutdown() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      // Second call: the dispatcher is already gone; nothing left to stop.
      if (!dispatcher_.joinable() && group_threads_.empty()) return;
    }
    stopping_ = true;
    cv_dispatch_.notify_all();
    cv_space_.notify_all();
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  std::unordered_map<std::uint64_t, std::thread> groups;
  {
    std::lock_guard<std::mutex> lock(mu_);
    groups.swap(group_threads_);
    finished_groups_.clear();
  }
  for (auto& entry : groups) entry.second.join();
}

ServiceStats JobManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats s = stats_;
  for (const auto& sink : residency_sinks_) s.residency += *sink;
  return s;
}

void JobManager::dispatcher_main() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_dispatch_.wait(lock, [&] {
      return (!queue_.empty() && running_ < opts_.max_concurrent) ||
             (stopping_ && queue_.empty());
    });
    if (queue_.empty()) return;  // stopping, and drained

    // Join the groups that finished since the last launch, outside mu_ (a
    // finished group thread may still be returning from run_group), so
    // threads and their stacks do not pile up until shutdown().
    std::vector<std::thread> finished;
    for (const std::uint64_t id : finished_groups_) {
      auto node = group_threads_.extract(id);
      finished.push_back(std::move(node.mapped()));
    }
    finished_groups_.clear();
    if (!finished.empty()) {
      lock.unlock();
      for (auto& t : finished) t.join();
      lock.lock();
    }

    // Pop the head job plus every batchable follower (same nonzero
    // batch_key, up to batch_limit): one group = one slot, one set of rank
    // threads and Comms, bodies sequential.
    std::vector<std::shared_ptr<detail::JobState>> group;
    group.push_back(queue_.front());
    queue_.pop_front();
    const std::uint64_t key = group.front()->opts.batch_key;
    if (key != 0) {
      for (auto it = queue_.begin();
           it != queue_.end() &&
           static_cast<int>(group.size()) < opts_.batch_limit;) {
        if ((*it)->opts.batch_key == key) {
          group.push_back(*it);
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    }
    cv_space_.notify_all();

    // Fewer than max_concurrent groups run and each holds one slot, so a
    // slot is free; the lowest free one is taken.
    const auto free_slot = static_cast<std::size_t>(
        std::find(slot_busy_.begin(), slot_busy_.end(), false) -
        slot_busy_.begin());
    TRIOLET_CHECK(free_slot < slots_.size(), "no free slot for a group");
    slot_busy_[free_slot] = true;
    if (!slots_[free_slot]) {
      slots_[free_slot] = std::make_unique<net::ClusterState>(
          opts_.nranks, net::TransportOptions{});
    }
    const int slot = static_cast<int>(free_slot);
    stats_.bands_leased += 1;
    running_ += 1;
    stats_.peak_concurrent = std::max(stats_.peak_concurrent, running_);
    stats_.dispatched += static_cast<std::int64_t>(group.size());
    if (group.size() > 1) {
      stats_.batches += 1;
      stats_.batched_jobs += static_cast<std::int64_t>(group.size());
    }
    for (auto& js : group) {
      js->result.queued_seconds = js->queued.seconds();
      js->result.slot = slot;
      js->result.batched_with = static_cast<int>(group.size()) - 1;
    }
    const std::uint64_t group_id = group.front()->id;
    group_threads_.emplace(
        group_id, std::thread([this, slot, jobs = std::move(group)]() mutable {
          run_group(slot, std::move(jobs));
        }));
  }
}

void JobManager::run_group(int slot,
                           std::vector<std::shared_ptr<detail::JobState>> jobs) {
  const int p = opts_.nranks;
  const std::size_t n = jobs.size();
  // The slot is this group's alone until it is returned below: a failing
  // job's abort_all() wakes only this group's blocked receives.
  net::ClusterState& state = *slots_[static_cast<std::size_t>(slot)];

  std::mutex agg_mu;
  std::vector<net::CommStats> sums(n);
  std::vector<double> run_secs(n, 0.0);
  std::vector<int> completed_ranks(n, 0);
  std::string group_error;
  std::size_t error_job = n;

  auto rank_main = [&](int r) {
    net::Comm comm(r, &state, residency_[static_cast<std::size_t>(r)].get());
    runtime::PoolScope pool_scope(*pools_[static_cast<std::size_t>(r)]);
    for (std::size_t j = 0; j < n; ++j) {
      if (state.aborted.load(std::memory_order_acquire)) break;
      net::CommStats before = comm.snapshot_stats();
      Stopwatch sw;
      try {
        JobContext ctx(&comm, jobs[j]->id, &jobs[j]->opts.name);
        jobs[j]->body(ctx);
      } catch (const net::ClusterAborted&) {
        // Secondary failure: this rank was blocked when a peer aborted the
        // slot. The root cause is recorded elsewhere.
        break;
      } catch (const std::exception& e) {
        {
          std::lock_guard<std::mutex> lock(agg_mu);
          if (group_error.empty()) {
            group_error = e.what();
            error_job = j;
          }
        }
        state.abort_all();
        break;
      }
      const double secs = sw.seconds();
      net::CommStats delta = comm.snapshot_stats() - before;
      std::lock_guard<std::mutex> lock(agg_mu);
      sums[j] += delta;
      run_secs[j] = std::max(run_secs[j], secs);
      completed_ranks[j] += 1;
    }
  };

  // Rank 0 runs on this group thread, which would otherwise only wait in
  // join().
  std::vector<std::thread> ranks;
  ranks.reserve(static_cast<std::size_t>(p - 1));
  for (int r = 1; r < p; ++r) ranks.emplace_back(rank_main, r);
  rank_main(0);
  for (auto& t : ranks) t.join();

  // The slot is quiet now (every rank joined): purge stranded messages — an
  // aborted job's unconsumed traffic, including descriptors still parked in
  // ring slots — so the slot's next group starts clean and pooled buffers
  // flow back to the allocator. The slot is returned below, under mu_.
  state.transport.purge();
  state.aborted.store(false, std::memory_order_relaxed);

  std::int64_t completed = 0, failed = 0;
  for (std::size_t j = 0; j < n; ++j) {
    auto& js = *jobs[j];
    std::lock_guard<std::mutex> lock(js.mu);
    JobResult& res = js.result;
    res.job_id = js.id;
    res.stats = sums[j];
    res.run_seconds = run_secs[j];
    if (completed_ranks[j] == p) {
      res.ok = true;
      completed += 1;
    } else {
      res.ok = false;
      if (j == error_job) {
        res.error = group_error;
      } else if (!group_error.empty()) {
        res.error = "aborted by a failure in batch-group neighbor \"" +
                    jobs[error_job]->opts.name + "\": " + group_error;
      } else {
        res.error = "job did not complete on every rank";
      }
      failed += 1;
    }
    js.done = true;
    js.cv.notify_all();
  }

  std::lock_guard<std::mutex> lock(mu_);
  slot_busy_[static_cast<std::size_t>(slot)] = false;
  finished_groups_.push_back(jobs.front()->id);
  stats_.completed += completed;
  stats_.failed += failed;
  running_ -= 1;
  inflight_ -= static_cast<std::int64_t>(n);
  cv_dispatch_.notify_all();
  if (inflight_ == 0) cv_drain_.notify_all();
}

}  // namespace triolet::svc
