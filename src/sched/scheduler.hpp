#pragma once

// The distributed engine under every dist:: skeleton (paper §2, §3.4, §3.5).
//
// run_chunks runs SPMD under a net::Cluster, one rank per cluster node. Only
// the root calls the caller's `make`; the other ranks receive their work as
// serialized iterator slices, each owning just the sub-arrays its
// sub-domain touches. The SchedulePolicy (policy.hpp) decides how the
// domain maps to ranks:
//
//   1. The root cuts the domain. kStatic with the default combine and grain
//      cuts one block per rank: the paper's node blocks, a near-square grid
//      for a 2D domain, and for a 1D nest whose inner iterators report
//      their size, equal shares of inner elements (detail::static_blocks).
//      Every other configuration cuts a fixed sequence of atomic chunks
//      ("atoms": `grain` outer-axis units, core::outer_slice).
//   2. kStatic pushes one Grant per rank up front. Under kGuided and
//      kDynamic, worker ranks ask for work by sending a request on the
//      invocation epoch's request tag (net::sched_request_tag; the pair of
//      protocol tags rotates per run_chunks call so back-to-back scheduled
//      skeletons cannot alias across rounds); the root's service loop
//      receives requests with kAnySource and answers each with a Grant: a
//      run of consecutive atoms, geometrically decaying (kGuided) or one
//      atom long (kDynamic).
//   3. The root interleaves serving with its own execution: while requests
//      are pending it serves; otherwise it self-issues one atom at a time,
//      staying responsive (a grant is never delayed by more than one atom
//      of root compute).
//   4. Every rank runs its grants on its node's threads (the kLocal hint).
//      When the queue drains, each worker's next request is answered with a
//      `done` grant. Partial results then combine along Comm::reduce's
//      binomial tree (CombineMode::kTree) or by an atom-ordered gather +
//      left fold (CombineMode::kOrdered, bitwise reproducible across
//      policies — see policy.hpp).
//
// Protocol traffic, grant counts, and per-rank busy/idle time are recorded
// in CommStats::sched so benchmarks can report imbalance and control
// overhead (docs/INTERNALS.md "Distributed scheduling").

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/consume.hpp"
#include "core/skeletons.hpp"
#include "net/comm.hpp"
#include "net/residency.hpp"
#include "runtime/parallel.hpp"
#include "sched/policy.hpp"
#include "sched/tuner.hpp"
#include "support/timing.hpp"

namespace triolet::sched {

/// The block runner residency decode scopes validate hits with (see
/// net::ResidencyDecodeScope): parallel_for over the slice's checksum blocks
/// on this thread's current_pool(), one block per chunk. Lazy splitting
/// hands blocks to the node's idle workers and leaves the whole pass on the
/// calling thread when the pool is busy.
inline void hash_blocks_on_pool(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  runtime::parallel_for(runtime::current_pool(), 0, static_cast<index_t>(n), 1,
                        [&body](index_t lo, index_t hi) {
                          body(static_cast<std::size_t>(lo),
                               static_cast<std::size_t>(hi));
                        });
}

/// One scheduler message from root to a worker: either a run of atoms
/// [atom_lo, atom_lo + atom_n) with the matching iterator slice, or the
/// `done` dismissal that ends the worker's request loop. `grain` ships with
/// every grant because only the root resolves it (workers never see the
/// global extent). kStatic's block split ships grain 0: `task` is then the
/// rank's whole block (detail::static_blocks), and [atom_lo, atom_lo +
/// atom_n) the rank's even share [E·r/p, E·(r+1)/p) of the E outer units,
/// which its item counters charge. The share is not the block: the blocks
/// of a 2D grid's block-row share their rows, and a weighted nest block
/// spans as many units as its inner work needs, so the counters charge
/// shares, which still sum to E.
template <typename It>
struct Grant {
  std::uint8_t done = 0;
  index_t atom_lo = 0;
  index_t atom_n = 0;
  index_t grain = 0;
  It task{};
};

namespace detail {

/// Outer units a grant charges to the item counters and the fair-share
/// gate: its run's outer extent, or for a block grant (grain 0) the rank's
/// share in atom_n. Summed over one run_chunks call they equal the domain's
/// extent.
inline index_t grant_items(index_t grain, index_t atom_n, index_t run_extent) {
  return grain > 0 ? run_extent : atom_n;
}

/// Runs one grant on this rank's threads: hints its task kLocal, calls
/// on_chunk, and charges busy time / chunk / item counters to this rank's
/// scheduler stats. The grant comes by value so the hint copies no slice
/// data. An empty band of atoms is skipped; a block always runs.
template <typename It, typename OnChunk>
void execute_run(net::Comm& comm, Grant<It> g, OnChunk&& on_chunk) {
  if (g.grain > 0 && g.atom_n <= 0) return;
  g.task.hint = core::ParHint::kLocal;
  Stopwatch sw;
  on_chunk(g.task, g.atom_lo, g.atom_n, g.grain);
  auto& s = comm.sched_stats();
  s.busy_seconds += sw.seconds();
  s.chunks_executed += 1;
  s.items_executed +=
      grant_items(g.grain, g.atom_n, core::outer_extent(g.task.domain()));
}

/// Streamed counterpart of execute_run: hands the grant to the pool via
/// `stream` and returns immediately (the receiving thread goes back to the
/// protocol). Chunk/item counters are charged here; busy time is folded in
/// from the stream once it drains.
template <typename It, typename OnChunk>
void stream_run(net::Comm& comm, core::StreamingConsumer& stream, Grant<It> g,
                const OnChunk& on_chunk) {
  g.task.hint = core::ParHint::kLocal;
  auto& s = comm.sched_stats();
  s.chunks_executed += 1;
  s.items_executed += core::outer_extent(g.task.domain());
  s.streamed_grants += 1;
  stream.submit([g = std::move(g), &on_chunk] {
    on_chunk(g.task, g.atom_lo, g.atom_n, g.grain);
  });
}

/// kStatic's node blocks, one per rank (see SchedulePolicy::kStatic). A
/// nest over a Seq domain whose inner iterators have size() is cut at equal
/// shares of inner elements, estimated from at most core::kWeightStrata
/// inner iterators (core::split_weighted); every other shape, and a nest
/// whose inners are all empty, gets core::split_blocks.
template <typename It>
auto static_blocks(const It& it, int p) {
  if constexpr (core::is_sized_nest_v<It>) {
    return core::split_weighted(
        it.domain(), p, [&it](index_t i) { return it.inner_at(i).size(); });
  } else {
    return core::split_blocks(it.domain(), p);
  }
}

/// Charges the delta of the current pool's counters across one run_chunks
/// call to CommStats::pool, surfacing intra-node steal/park/wake behavior
/// next to the protocol traffic it served.
class PoolDeltaScope {
 public:
  explicit PoolDeltaScope(net::Comm& comm)
      : comm_(comm), pool_(runtime::current_pool()), before_(pool_.stats()) {}
  ~PoolDeltaScope() { comm_.pool_stats() += pool_.stats() - before_; }
  PoolDeltaScope(const PoolDeltaScope&) = delete;
  PoolDeltaScope& operator=(const PoolDeltaScope&) = delete;

 private:
  net::Comm& comm_;
  runtime::ThreadPool& pool_;
  runtime::PoolStats before_;
};

/// The scheduler body for one concrete policy (kStatic/kGuided/kDynamic).
/// Factored out of run_chunks so the kAuto wrapper can re-enter with
/// instrumented closures without run_chunks calling *itself*: the wrapper
/// closures are fresh template types, so a self-call would instantiate
/// run_chunks without bound.
template <typename MakeIter, typename OnChunk>
void run_chunks_concrete(net::Comm& comm, MakeIter&& make,
                         const SchedOptions& opts, OnChunk&& on_chunk) {
  using It = std::remove_cvref_t<decltype(make())>;
  const int p = comm.size();
  auto& sched = comm.sched_stats();
  detail::PoolDeltaScope pool_delta(comm);

  // Streamed grant execution: created only for the demand-driven policies
  // (kStatic pushes one grant per rank up front — nothing to pipeline).
  std::optional<core::StreamingConsumer> stream;
  if (opts.streaming && opts.policy != SchedulePolicy::kStatic) {
    stream.emplace(runtime::current_pool());
  }
  // Backpressure: stop requesting (worker) / self-issuing (root) while more
  // than ~2 tasks per worker are already in flight; the receiving thread
  // helps execute instead. Bounds queue growth without ever idling the
  // pool.
  const std::int64_t throttle =
      stream ? 2 * static_cast<std::int64_t>(stream->pool().size()) : 0;

  // This invocation's epoch-rotated protocol tags. Without the rotation a
  // fast worker's next-round request reaching the root's drain loop would be
  // answered with this round's `done`, starving a slow worker (see
  // tags.hpp). Claimed on every rank: run_chunks is collective.
  const int epoch = comm.next_sched_epoch();
  const int tag_request = net::sched_request_tag(epoch);
  const int tag_grant = net::sched_grant_tag(epoch);

  // Grant-payload residency (see SchedOptions::residency): identical on
  // every rank — the iterator type, the option, and the process-global
  // budget are all SPMD-uniform — so sender and receivers agree on whether
  // the protocol is in play without negotiating.
  const bool resident = core::iter_uses_residency_v<It> && opts.residency &&
                        comm.residency_enabled();

  if (comm.rank() != 0) {
    // Decode grants under this rank's slice cache for the whole loop: an
    // inline slice is stored for future rounds, a token resolves from the
    // cache (fetching from the root on miss/corruption).
    std::optional<net::ResidencyDecodeScope> rscope;
    if (resident) rscope.emplace(comm, /*owner=*/0, hash_blocks_on_pool);
    if (opts.policy == SchedulePolicy::kStatic) {
      // Static: exactly one pre-assigned grant, no requests. Received
      // through a handle so the serialized payload size is observable for
      // the bytes-per-item calibration; the handle, and the payload with it,
      // is dropped before the grant runs.
      Grant<It> g = [&] {
        net::PendingRecv pending = comm.irecv(0, tag_grant);
        Grant<It> got = pending.get<Grant<It>>();
        sched.grant_payload_bytes +=
            static_cast<std::int64_t>(pending.message().payload.size());
        return got;
      }();
      sched.grants_received += 1;
      sched.granted_items +=
          grant_items(g.grain, g.atom_n, core::outer_extent(g.task.domain()));
      detail::execute_run(comm, std::move(g), on_chunk);
      return;
    }
    // Demand-driven: request until dismissed. At most one request is ever
    // outstanding (the termination invariant the root's done-counting
    // relies on); prefetch only moves *when* it is posted.
    auto post_request = [&] {
      if (opts.prefetch) {
        (void)comm.isend(0, tag_request, std::uint8_t{0});
      } else {
        comm.send(0, tag_request, std::uint8_t{0});
      }
      sched.requests_sent += 1;
      sched.control_messages += 1;
      sched.control_bytes += 1;
      return comm.irecv(0, tag_grant);
    };
    net::PendingRecv next_grant = post_request();
    while (true) {
      // Sampled before the wait: was the pool still chewing on earlier
      // chunks when this rank went back to receiving? That wait time is
      // overlap, even if the chunks finish mid-wait.
      const bool busy_while_receiving = stream && stream->pending() > 0;
      Stopwatch wait;
      Grant<It> g = next_grant.get<Grant<It>>();
      const double waited = wait.seconds();
      sched.idle_seconds += waited;
      if (busy_while_receiving) sched.overlap_seconds += waited;
      sched.steal_waits += 1;
      if (g.done) break;
      sched.grants_received += 1;
      // Receiver-side payload accounting: serialized bytes over granted
      // units is the measured bytes-per-item the tuner calibrates with
      // (residency tokens show up here as genuinely small payloads).
      sched.grant_payload_bytes +=
          static_cast<std::int64_t>(next_grant.message().payload.size());
      sched.granted_items += core::outer_extent(g.task.domain());
      if (stream) {
        // Hand the grant to the pool and immediately request the next one;
        // when too much is queued, help execute before requesting (the
        // request is the throttle: at most one is ever outstanding).
        detail::stream_run(comm, *stream, std::move(g), on_chunk);
        while (stream->pending() > throttle) {
          if (!stream->help()) std::this_thread::yield();
        }
        next_grant = post_request();
      } else if (opts.prefetch) {
        // Double-buffered grants: the request for run k+1 is already in
        // flight while run k executes, hiding the service round trip
        // behind compute.
        next_grant = post_request();
        detail::execute_run(comm, std::move(g), on_chunk);
      } else {
        detail::execute_run(comm, std::move(g), on_chunk);
        next_grant = post_request();
      }
    }
    if (stream) {
      stream->drain();
      sched.busy_seconds += stream->busy_seconds();
    }
    return;
  }

  // -- root -------------------------------------------------------------------
  It it = make();
  const auto dom = it.domain();
  const index_t extent = core::outer_extent(dom);
  // The cost-variance hint is a pure function of the domain (per-unit value
  // weights for segmented sources, 0 for dense ones), so the resolved grain
  // — and with it the kOrdered atom decomposition — stays policy-independent.
  const index_t grain =
      resolve_grain(extent, p, opts.grain, core::outer_cost_cv(dom));
  const index_t natoms = atom_count(extent, grain);

  // Atoms [a, b) as a sliced sub-iterator (contiguous outer units, last
  // atom clamped to the extent).
  auto slice_run = [&](index_t a, index_t b) {
    const index_t u0 = std::min(a * grain, extent);
    const index_t u1 = std::min(b * grain, extent);
    return it.slice(core::outer_slice(dom, u0, u1));
  };
  // Outer-domain items atoms [a, b) cover (the fair-share currency).
  auto units_of = [&](index_t a, index_t b) {
    return std::min(b * grain, extent) - std::min(a * grain, extent);
  };
  // Fair-share gate (SchedOptions::gate): called before every grant and
  // every root self-issue, root thread only. Under the service layer this
  // blocks until the job's deficit-round-robin turn, so a large job's grant
  // stream cannot starve concurrent small jobs.
  auto gate_items = [&](index_t a, index_t b) {
    if (opts.gate) opts.gate->before_grant(units_of(a, b));
  };

  // Grant transport. Non-resident path: plain isend (serialize + deliver on
  // the progress engine). Resident path: serialize eagerly on this thread
  // under the per-destination encode scope — token substitution must see
  // grants in posting order to mirror the worker's cache — then hand the
  // segments to the engine with the Grant kept alive for zero-copy gather.
  if (resident) net::install_residency_fetch_service(comm);
  auto send_grant = [&](int r, Grant<It> g) {
    if (resident) {
      auto grant = std::make_shared<Grant<It>>(std::move(g));
      serial::SegmentedBytes sg;
      {
        net::ResidencyEncodeScope scope(
            comm, r,
            core::iter_is_fused_view_v<It> ? &comm.view_stats() : nullptr);
        sg = serial::to_segments(*grant);
      }
      (void)comm.isend_segments(r, tag_grant, std::move(sg),
                                std::move(grant));
    } else {
      (void)comm.isend(r, tag_grant, std::move(g));
    }
  };

  if (opts.policy == SchedulePolicy::kStatic) {
    // One grant per rank, pushed without any request traffic. Rank r gets
    // its static_blocks block when nothing downstream sees atoms (the
    // default kTree combine and grain), else its atom band [natoms*r/p,
    // natoms*(r+1)/p); see SchedulePolicy::kStatic.
    const bool blocks = opts.combine == CombineMode::kTree && opts.grain == 0;
    std::vector<std::remove_cvref_t<decltype(dom)>> split;
    if (blocks) split = static_blocks(it, p);
    // Rank r's gated grant. A block is credited with the rank's even share
    // [extent*r/p, extent*(r+1)/p) of the outer units (see Grant).
    auto static_grant = [&](int r) {
      if (blocks) {
        const index_t u0 = extent * r / p, u1 = extent * (r + 1) / p;
        if (opts.gate) opts.gate->before_grant(u1 - u0);
        return Grant<It>{0, u0, u1 - u0, 0,
                         it.slice(split[static_cast<std::size_t>(r)])};
      }
      const index_t a = natoms * r / p, b = natoms * (r + 1) / p;
      gate_items(a, b);
      return Grant<It>{0, a, b - a, grain, slice_run(a, b)};
    };
    for (int r = 1; r < p; ++r) {
      // Delivery of the pushed grants runs on the progress engine while the
      // root executes its own grant below.
      send_grant(r, static_grant(r));
      sched.grants_served += 1;
      sched.control_messages += 1;
      sched.control_bytes += kGrantHeaderBytes;
    }
    Grant<It> own = static_grant(0);
    // Every grant is cut and owns its slice's data: drop the full iterator
    // before computing (for sgemm it holds whole copies of A and B^T).
    it = It{};
    detail::execute_run(comm, std::move(own), on_chunk);
    return;
  }

  // Demand-driven service loop. `next` is the queue head; the root serves
  // every pending request before self-issuing one atom, so worker wait time
  // is bounded by one atom of root compute.
  index_t next = 0;
  int done_sent = 0;
  auto serve = [&](int requester) {
    const index_t remaining = natoms - next;
    if (remaining <= 0) {
      send_grant(requester, Grant<It>{1, 0, 0, grain, {}});
      done_sent += 1;
    } else {
      const index_t n = opts.policy == SchedulePolicy::kDynamic
                            ? 1
                            : std::min(remaining, guided_run_atoms(remaining, p));
      gate_items(next, next + n);
      // Grants leave through the progress engine: the root can resume its
      // own atom (or serve the next request) while the grant delivers
      // off-thread.
      send_grant(requester, Grant<It>{0, next, n, grain, slice_run(next, next + n)});
      next += n;
      sched.grants_served += 1;
    }
    sched.control_messages += 1;
    sched.control_bytes += kGrantHeaderBytes;
  };

  while (next < natoms || done_sent < p - 1) {
    // Serve any pending residency fetches (cache miss / checksum repair on
    // a worker) so a fetch is never stuck behind a full atom of compute.
    comm.poll_services();
    if (next < natoms) {
      bool served = false;
      while (auto req = comm.try_recv_message(net::kAnySource,
                                              tag_request)) {
        serve(req->src);
        served = true;
      }
      if (served) continue;
      if (stream) {
        // Streamed self-issue: the root's own atoms execute on its pool,
        // so the service loop stays responsive the whole time — a grant is
        // never delayed by even one atom of root compute. Self-issue pauses
        // (and the root helps its pool) while enough is queued.
        if (stream->pending() > throttle) {
          if (!stream->help()) std::this_thread::yield();
          continue;
        }
        gate_items(next, next + 1);
        detail::stream_run(
            comm, *stream,
            Grant<It>{0, next, 1, grain, slice_run(next, next + 1)},
            on_chunk);
        next += 1;
      } else {
        // No demand right now: run one atom locally, then poll again.
        gate_items(next, next + 1);
        detail::execute_run(
            comm, Grant<It>{0, next, 1, grain, slice_run(next, next + 1)},
            on_chunk);
        next += 1;
      }
    } else {
      // Queue drained: block for the stragglers' final requests. Streamed
      // root atoms keep computing on the pool underneath this blocking
      // receive — that compute is exactly the overlap the stream buys.
      const bool busy_while_receiving = stream && stream->pending() > 0;
      Stopwatch wait;
      net::Message req =
          comm.recv_message(net::kAnySource, tag_request);
      if (busy_while_receiving) {
        sched.overlap_seconds += wait.seconds();
      }
      serve(req.src);
    }
  }
  if (stream) {
    stream->drain();
    sched.busy_seconds += stream->busy_seconds();
  }
}

}  // namespace detail

/// The scheduler core: runs `make()`'s iterator across all ranks under
/// `opts`, invoking `on_chunk(run_iter, atom_lo, atom_n, grain)` on the
/// rank that executes each granted run (a kStatic block arrives with grain
/// 0; see Grant). `make` is called on rank 0 only, so non-root ranks never
/// need the input data; `on_chunk` runs on every rank for its own grants,
/// with the run hinted kLocal. Collective: every rank must call it.
///
/// With opts.streaming (kGuided/kDynamic), grants are handed to the rank's
/// current_pool() through a core::StreamingConsumer as they arrive, so
/// on_chunk may run on pool workers, *concurrently* with itself — callers
/// that pass streaming options must make on_chunk thread-safe. The stream
/// is drained before run_chunks returns, so results are complete either
/// way. Under SchedulePolicy::kAuto the tuner may pick any lattice point —
/// including streaming — so on_chunk must be thread-safe under kAuto too.
template <typename MakeIter, typename OnChunk>
void run_chunks(net::Comm& comm, MakeIter&& make, const SchedOptions& opts,
                OnChunk&& on_chunk) {
  if (opts.policy == SchedulePolicy::kAuto) {
    // Model-driven mode (sched/tuner.hpp): resolve this round's concrete
    // options from the tuner, run them with an instrumented on_chunk that
    // samples per-run durations, then fit + re-pick collectively from the
    // round's counter delta.
    AutoTuner& tuner = detail::tuner_for(comm, opts);
    const SchedOptions round_opts = tuner.begin_round(opts);
    const net::CommStats before = comm.snapshot_stats();
    index_t root_extent = -1;
    double root_cost_cv = 0.0;
    Stopwatch wall;
    detail::run_chunks_concrete(
        comm,
        [&] {
          auto it = make();
          root_extent = core::outer_extent(it.domain());
          root_cost_cv = core::outer_cost_cv(it.domain());
          return it;
        },
        round_opts,
        [&](const auto& run, index_t atom_lo, index_t atom_n, index_t grain) {
          Stopwatch sw;
          on_chunk(run, atom_lo, atom_n, grain);
          tuner.record_run(atom_lo, grain, core::outer_extent(run.domain()),
                           sw.seconds());
        });
    tuner.finish_round(comm, wall.seconds(), comm.snapshot_stats() - before,
                       root_extent, root_cost_cv);
    return;
  }
  detail::run_chunks_concrete(comm, make, opts, on_chunk);
}

namespace detail {

/// Elementwise sum of two partial histograms/grids.
template <typename A>
A sum_arrays(A a, const A& b) {
  TRIOLET_CHECK(a.size() == b.size(), "partial histogram size mismatch");
  auto* pa = a.data();
  const auto* pb = b.data();
  const index_t n = a.size();
  for (index_t i = 0; i < n; ++i) pa[i] += pb[i];
  return a;
}

/// The kTree combine of the reducing skeletons: runs `make()` under `opts`
/// and folds one `partial(run)` per grant with `op`. Each rank folds its
/// partials as they complete (ascending atom order unless opts.streaming),
/// seeded with the first one, so a rank's lone kStatic partial enters the
/// tree untouched; a rank without grants contributes `none()`. The rank
/// results combine along Comm::reduce; rank 0 gets the result, other ranks
/// a default value.
template <typename MakeIter, typename None, typename Partial, typename Op>
auto tree_reduce(net::Comm& comm, MakeIter&& make, const SchedOptions& opts,
                 None none, Partial partial, Op op) {
  using T = decltype(none());
  // Streamed chunks run concurrently on pool workers: partials are computed
  // outside the lock and only merged under it (uncontended otherwise).
  std::mutex mu;
  std::optional<T> acc;
  run_chunks(comm, make, opts,
             [&](const auto& run, index_t, index_t, index_t) {
               T part = partial(run);
               std::lock_guard<std::mutex> lock(mu);
               acc = acc ? op(std::move(*acc), std::move(part))
                         : std::move(part);
             });
  return comm.reduce(acc ? std::move(*acc) : none(), op, 0);
}

}  // namespace detail

/// Distributed reduction. `init` must be an identity of `op`. Rank 0 gets
/// the result; other ranks a default T.
///
/// kTree: per-rank partials combine along the binomial reduce tree (exact
/// for associative + commutative ops; FP parenthesization follows the chunk
/// assignment, and under streaming the completion order too).
/// kOrdered: one partial per atom, gathered and left-folded in atom order —
/// bitwise identical for all three policies and run-to-run (for a fixed
/// per-node thread count), the scheduler analogue of reduce_ordered.
template <typename MakeIter, typename T, typename Op>
T reduce(net::Comm& comm, MakeIter&& make, T init, Op op,
         const SchedOptions& opts = {}) {
  if (opts.combine == CombineMode::kOrdered) {
    // Every on_chunk computes its partials outside the lock and only merges
    // under it: with opts.streaming, chunks run concurrently on pool
    // workers (the lock is uncontended on the non-streaming path).
    std::mutex mu;
    std::vector<std::pair<index_t, T>> mine;
    run_chunks(comm, make, opts,
               [&](const auto& run, index_t atom_lo, index_t atom_n,
                   index_t grain) {
                 const auto rdom = run.domain();
                 const index_t run_extent = core::outer_extent(rdom);
                 std::vector<std::pair<index_t, T>> local;
                 local.reserve(static_cast<std::size_t>(atom_n));
                 for (index_t j = 0; j < atom_n; ++j) {
                   const index_t u0 = std::min(j * grain, run_extent);
                   const index_t u1 = std::min((j + 1) * grain, run_extent);
                   auto atom = run.slice(core::outer_slice(rdom, u0, u1));
                   local.emplace_back(atom_lo + j,
                                      core::reduce(atom, init, op));
                 }
                 std::lock_guard<std::mutex> lock(mu);
                 mine.insert(mine.end(),
                             std::make_move_iterator(local.begin()),
                             std::make_move_iterator(local.end()));
               });
    auto parts = comm.gather(mine, 0);
    if (comm.rank() != 0) return T{};
    std::vector<std::pair<index_t, T>> pieces;
    for (auto& part : parts) {
      pieces.insert(pieces.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
    }
    std::sort(pieces.begin(), pieces.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    T acc = std::move(init);
    for (auto& [idx, partial] : pieces) {
      acc = op(std::move(acc), std::move(partial));
    }
    return acc;
  }
  return detail::tree_reduce(
      comm, make, opts, [&] { return init; },
      [&](const auto& run) { return core::reduce(run, init, op); }, op);
}

/// Distributed sum (rank 0 gets the result).
template <typename MakeIter>
auto sum(net::Comm& comm, MakeIter&& make, const SchedOptions& opts = {}) {
  using T = typename std::remove_cvref_t<decltype(make())>::value_type;
  return sched::reduce(comm, make, T{},
                       [](T a, const T& b) { return a + b; }, opts);
}

/// Distributed element count (after filtering / nesting).
template <typename MakeIter>
index_t count(net::Comm& comm, MakeIter&& make,
              const SchedOptions& opts = {}) {
  return detail::tree_reduce(
      comm, make, opts, [] { return index_t{0}; },
      [](const auto& run) { return core::count(run); }, std::plus<index_t>{});
}

/// Distributed minimum (rank 0 gets the result; other ranks a default T).
/// The optional partials carry "no elements" through the threads and the
/// tree, so any rank's chunk may be empty; an empty iterator fails on rank 0.
template <typename MakeIter>
auto minimum(net::Comm& comm, MakeIter&& make, const SchedOptions& opts = {}) {
  using T = typename std::remove_cvref_t<decltype(make())>::value_type;
  std::optional<T> best = detail::tree_reduce(
      comm, make, opts, [] { return std::optional<T>{}; },
      [](const auto& run) { return core::minimum_partial(run); },
      [](std::optional<T> a, std::optional<T> b) {
        if (!a) return b;
        if (!b) return a;
        return *b < *a ? b : a;
      });
  if (comm.rank() != 0) return T{};
  TRIOLET_CHECK(best.has_value(), "minimum of an empty iterator");
  return *best;
}

/// Distributed maximum (rank 0 gets the result; see minimum).
template <typename MakeIter>
auto maximum(net::Comm& comm, MakeIter&& make, const SchedOptions& opts = {}) {
  using T = typename std::remove_cvref_t<decltype(make())>::value_type;
  std::optional<T> best = detail::tree_reduce(
      comm, make, opts, [] { return std::optional<T>{}; },
      [](const auto& run) { return core::maximum_partial(run); },
      [](std::optional<T> a, std::optional<T> b) {
        if (!a) return b;
        if (!b) return a;
        return *a < *b ? b : a;
      });
  if (comm.rank() != 0) return T{};
  TRIOLET_CHECK(best.has_value(), "maximum of an empty iterator");
  return *best;
}

/// Distributed arithmetic mean (rank 0 gets the result; 0.0 when empty).
template <typename MakeIter>
double average(net::Comm& comm, MakeIter&& make,
               const SchedOptions& opts = {}) {
  using P = std::pair<double, index_t>;
  const P total = detail::tree_reduce(
      comm, make, opts, [] { return P{0.0, 0}; },
      [](const auto& run) { return core::average_partial(run); },
      [](P a, P b) { return P{a.first + b.first, a.second + b.second}; });
  if (comm.rank() != 0 || total.second == 0) return 0.0;
  return total.first / static_cast<double>(total.second);
}

/// Distributed integer histogram: one threaded histogram per grant ("a
/// distributed reduction, which performs one threaded reduction per node,
/// which sequentially builds one histogram per thread", §3.4), partials
/// summed along the reduce tree. Integer addition commutes exactly, so
/// every policy returns the same histogram bit for bit.
template <typename MakeIter>
Array1<std::int64_t> histogram(net::Comm& comm, index_t nbins, MakeIter&& make,
                               const SchedOptions& opts = {}) {
  return detail::tree_reduce(
      comm, make, opts, [nbins] { return Array1<std::int64_t>(nbins, 0); },
      [nbins](const auto& run) { return core::histogram(nbins, run); },
      detail::sum_arrays<Array1<std::int64_t>>);
}

/// Distributed floating-point histogram (cutcp's pattern). The output-grid
/// summation dominates cutcp's scaling (paper §4.5); summing partial grids
/// pairwise along the binomial reduce tree caps the root's share at
/// ceil(log2 P) grid receives + sums instead of P-1. Accumulation order
/// follows the chunk assignment, so policies agree to rounding, not bitwise.
template <typename F, typename MakeIter>
Array1<F> float_histogram(net::Comm& comm, index_t ncells, MakeIter&& make,
                          const SchedOptions& opts = {}) {
  return detail::tree_reduce(
      comm, make, opts, [ncells] { return Array1<F>(ncells, F{0}); },
      [ncells](const auto& run) {
        return core::float_histogram<F>(ncells, run);
      },
      detail::sum_arrays<Array1<F>>);
}

/// Distributed materialization of a 1D indexer: every grant builds one
/// contiguous base-offset-tagged part with threads, the parts are gathered
/// along the binomial tree, and the root block-copies each into place (one
/// std::copy per part). Elementwise output, so results are identical under
/// every policy.
template <typename MakeIter>
auto build_array1(net::Comm& comm, MakeIter&& make,
                  const SchedOptions& opts = {}) {
  using It = std::remove_cvref_t<decltype(make())>;
  using V = typename It::value_type;
  // Part placement is positional (each part carries its base offset), so
  // streamed completion order is irrelevant; the lock only guards the
  // vector growth.
  std::mutex mu;
  std::vector<Array1<V>> mine;
  run_chunks(comm, make, opts,
             [&](const auto& run, index_t, index_t, index_t) {
               auto part = core::build_array1(run);
               std::lock_guard<std::mutex> lock(mu);
               mine.push_back(std::move(part));
             });
  auto gathered = comm.gather(mine, 0);
  if (comm.rank() != 0) return Array1<V>{};
  std::vector<Array1<V>> parts;
  for (auto& g : gathered) {
    parts.insert(parts.end(), std::make_move_iterator(g.begin()),
                 std::make_move_iterator(g.end()));
  }
  if (parts.empty()) return Array1<V>{};
  index_t lo = parts.front().lo(), hi = parts.front().hi();
  for (const auto& part : parts) {
    lo = std::min(lo, part.lo());
    hi = std::max(hi, part.hi());
  }
  Array1<V> out(lo, std::vector<V>(static_cast<std::size_t>(hi - lo)));
  for (const auto& part : parts) {
    std::copy_n(part.data(), static_cast<std::size_t>(part.size()),
                out.data() + (part.lo() - lo));
  }
  return out;
}

/// Distributed materialization of a 2D indexer: every grant fills one
/// rectangular Block2 with threads and the root assembles the full matrix.
/// Under the default kStatic the blocks are the near-square split_blocks
/// grid, so an outerproduct iterator is the paper's 2D block-distributed
/// sgemm; atom grants are full-width row bands. The domain must be
/// full-width.
template <typename MakeIter>
auto build_array2(net::Comm& comm, MakeIter&& make,
                  const SchedOptions& opts = {}) {
  using It = std::remove_cvref_t<decltype(make())>;
  using V = typename It::value_type;
  // Positional assembly again: blocks carry their own rectangles.
  std::mutex mu;
  std::vector<core::Block2<V>> mine;
  run_chunks(comm, make, opts,
             [&](const auto& run, index_t, index_t, index_t) {
               auto part = core::build_block2(run);
               std::lock_guard<std::mutex> lock(mu);
               mine.push_back(std::move(part));
             });
  auto gathered = comm.gather(mine, 0);
  if (comm.rank() != 0) return Array2<V>{};
  std::vector<core::Block2<V>> blocks;
  for (auto& g : gathered) {
    blocks.insert(blocks.end(), std::make_move_iterator(g.begin()),
                  std::make_move_iterator(g.end()));
  }
  if (blocks.empty()) return Array2<V>{};
  core::Dim2 full = blocks.front().dom;
  for (const auto& b : blocks) {
    full.y0 = std::min(full.y0, b.dom.y0);
    full.y1 = std::max(full.y1, b.dom.y1);
    full.x0 = std::min(full.x0, b.dom.x0);
    full.x1 = std::max(full.x1, b.dom.x1);
  }
  TRIOLET_CHECK(full.x0 == 0, "build_array2 needs a full-width 2D domain");
  Array2<V> out(full.y0, full.rows(), full.cols(),
                std::vector<V>(static_cast<std::size_t>(full.size())));
  // Blocks are row-major over their own domain: copy one contiguous row
  // segment at a time instead of indexing element by element.
  for (const auto& b : blocks) {
    const index_t bw = b.dom.cols();
    if (bw == 0) continue;
    for (index_t y = b.dom.y0; y < b.dom.y1; ++y) {
      const V* src =
          b.data.data() + static_cast<std::size_t>((y - b.dom.y0) * bw);
      std::copy_n(src, static_cast<std::size_t>(bw), &out(y, b.dom.x0));
    }
  }
  return out;
}

}  // namespace triolet::sched

namespace triolet::serial {

template <typename It>
struct use_custom_codec<triolet::sched::Grant<It>> : std::true_type {};

template <typename It>
struct Codec<triolet::sched::Grant<It>> {
  using G = triolet::sched::Grant<It>;
  static void write(ByteWriter& w, const G& g) {
    w.write_pod(g.done);
    w.write_pod(g.atom_lo);
    w.write_pod(g.atom_n);
    w.write_pod(g.grain);
    // `done` dismissals carry no task: a default-constructed iterator may
    // hold sources that should not travel (and has nothing to say anyway).
    if (!g.done) serial::write(w, g.task);
  }
  static void read(ByteReader& r, G& g) {
    g.done = r.read_pod<std::uint8_t>();
    g.atom_lo = r.read_pod<triolet::sched::index_t>();
    g.atom_n = r.read_pod<triolet::sched::index_t>();
    g.grain = r.read_pod<triolet::sched::index_t>();
    if (!g.done) serial::read(r, g.task);
  }
};

}  // namespace triolet::serial
