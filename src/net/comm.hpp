#pragma once

// Communicator: the MPI-analogue endpoint each SPMD rank holds.
//
// Point-to-point send/recv move serialized byte payloads between ranks over
// the ring data plane (net/transport.hpp); collectives are layered on point-to-point with reserved tag
// bands, like a minimal MPI implementation. All collectives run over
// logarithmic communication trees (docs/INTERNALS.md "Collective
// algorithms"):
//
//   broadcast / reduce    binomial tree rooted at `root`
//   gather / scatter      binomial tree moving contiguous subtree bundles
//   allreduce / allgather recursive doubling, with a fold-in/fold-out step
//                         for non-power-of-two rank counts
//   barrier               dissemination (each round r signals rank + 2^r)
//
// so the critical path of every collective is O(log P) messages instead of
// the O(P) a root-centric loop would serialize.
//
// Determinism contract: reductions combine partials in a *fixed tree order*
// (each internal node computes op(lower-rank block, higher-rank block)), so
// floating-point results are bitwise reproducible run-to-run and, for
// allreduce, bitwise identical on every rank. The combine *parenthesization*
// differs from a linear rank-order fold.

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "net/slice_cache.hpp"
#include "net/tags.hpp"
#include "runtime/pool_stats.hpp"
#include "serial/checksum.hpp"
#include "serial/serialize.hpp"
#include "support/macros.hpp"

namespace triolet::net {
// Reserved tag constants (kFirstReservedTag, kTagSchedBand / Request /
// Grant, kTagResidencyBand) live in net/tags.hpp, one registry audited by
// assert_tag_bands_disjoint() at Cluster startup.

/// Collective kinds tracked by the per-collective traffic counters.
enum class Collective : int {
  kBarrier = 0,
  kBroadcast,
  kGather,
  kScatter,
  kReduce,
  kAllreduce,
  kAllgather,
};
inline constexpr std::size_t kNumCollectives = 7;

/// Traffic attributed to one collective kind on one rank. Messages a
/// collective relays on behalf of other ranks (tree forwarding) count here
/// too, so `messages_sent` of the busiest rank bounds the collective's
/// critical-path depth.
struct CollectiveStats {
  std::int64_t calls = 0;
  std::int64_t messages_sent = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t messages_received = 0;
  std::int64_t bytes_received = 0;
};

TRIOLET_STATS_FIELDS(CollectiveStats, calls, messages_sent, bytes_sent,
                     messages_received, bytes_received)

/// Traffic and load attributed to the demand-driven chunk scheduler on one
/// rank (src/sched/ fills these in; see docs/INTERNALS.md "Distributed
/// scheduling"). Control traffic is the request/grant protocol itself —
/// task payloads inside grants are *not* control bytes.
struct SchedStats {
  std::int64_t requests_sent = 0;      // chunk requests this rank issued
  std::int64_t grants_served = 0;      // work grants issued (root only)
  std::int64_t grants_received = 0;    // work grants this rank executed
  std::int64_t chunks_executed = 0;    // grants + root self-issued chunks
  std::int64_t items_executed = 0;     // outer-domain units actually run here
  std::int64_t control_messages = 0;   // requests + grant envelopes
  std::int64_t control_bytes = 0;      // request payloads + grant headers
  double busy_seconds = 0.0;           // executing granted work
  double idle_seconds = 0.0;           // waiting for a grant (steal latency)
  std::int64_t steal_waits = 0;        // number of request->grant waits

  /// Receiver-side grant payload accounting (the data a grant carried, as
  /// opposed to control_bytes): total serialized payload bytes of received
  /// work grants and the outer-domain units those grants covered. Their
  /// ratio is the measured bytes-per-item coefficient the autotuner feeds
  /// into sim::calibrate_from.
  std::int64_t grant_payload_bytes = 0;
  std::int64_t granted_items = 0;
};

TRIOLET_STATS_FIELDS(SchedStats, requests_sent, grants_served,
                     grants_received, chunks_executed, items_executed,
                     control_messages, control_bytes, busy_seconds,
                     idle_seconds, steal_waits, grant_payload_bytes,
                     granted_items)

/// Fused-view and halo-exchange attribution (src/dist/ views + stencils).
/// view_* counts leaf-slice payloads a *composite* resident source (zip /
/// slice / transform over resident leaves, or a segmented source) replaced
/// with residency tokens — the bytes a materializing pipeline would have
/// shipped per round. halo_* counts ghost-cell traffic of
/// dist::halo_exchange, and halo_overlap_seconds is interior compute that
/// ran while neighbor exchanges were in flight.
struct ViewStats {
  std::int64_t view_tokens = 0;         // leaf slices shipped as tokens
  std::int64_t view_bytes_avoided = 0;  // payload bytes those tokens replaced
  std::int64_t halo_exchanges = 0;      // halo_exchange rounds on this rank
  std::int64_t halo_messages = 0;       // boundary messages sent
  std::int64_t halo_bytes = 0;          // boundary payload bytes sent
  std::int64_t ghost_cells = 0;         // ghost cells received
  double halo_overlap_seconds = 0.0;    // interior compute under exchange
};

TRIOLET_STATS_FIELDS(ViewStats, view_tokens, view_bytes_avoided,
                     halo_exchanges, halo_messages, halo_bytes, ghost_cells,
                     halo_overlap_seconds)

struct CommStats {
  std::int64_t messages_sent = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t messages_received = 0;
  std::int64_t bytes_received = 0;

  /// Of bytes_sent: payload bytes that travelled as borrowed zero-copy
  /// segments (large trivially-copyable array spans, copied once straight
  /// into the delivered payload) vs. bytes staged through the serializer's
  /// copy stream. bytes_zero_copy + bytes_copied == bytes_sent.
  std::int64_t bytes_zero_copy = 0;
  std::int64_t bytes_copied = 0;

  /// Per-collective breakdown, indexed by Collective. Traffic of a nested
  /// collective is attributed to the outermost one.
  std::array<CollectiveStats, kNumCollectives> collectives{};

  /// Demand-driven scheduler attribution (requests/grants/busy/idle).
  SchedStats sched{};

  /// Intra-node pool counters for work this rank's scheduled skeletons ran.
  runtime::PoolStats pool{};

  /// Slice-residency attribution: tokens sent instead of payloads,
  /// bytes_avoided, cache hits/misses/evictions (net/slice_cache.hpp).
  ResidencyStats residency{};

  /// Fused distributed views and halo-exchange attribution.
  ViewStats views{};

  /// Messaging data-plane counters (eager/rendezvous split, pool behavior).
  MsgStats msg{};

  const CollectiveStats& collective(Collective c) const {
    return collectives[static_cast<std::size_t>(c)];
  }
};

// Stat structs travel in autotuner round samples (Comm::allgather of
// per-rank deltas) and in bench gathers, and `after - before` of two
// Comm::snapshot_stats() snapshots is the traffic of everything in between —
// the per-round attribution primitive the autotuner (and the benches)
// consume instead of hand-tracking individual counters.
TRIOLET_STATS_FIELDS(CommStats, messages_sent, bytes_sent, messages_received,
                     bytes_received, bytes_zero_copy, bytes_copied,
                     collectives, sched, pool, residency, views, msg)

/// Shared state of one in-process cluster (owned by Cluster, referenced by
/// every Comm).
struct ClusterState {
  ClusterState(int nranks, const TransportOptions& transport_options);

  int nranks = 0;
  Transport transport;
  std::atomic<bool> aborted{false};

  void abort_all();

  /// Wakes every blocked receiver *without* raising the cluster abort flag:
  /// the service layer uses this after raising a per-job abort flag, so the
  /// failing job's waiters throw ClusterAborted while unrelated jobs
  /// re-check their own flags and go back to sleep.
  void interrupt_all();
};

class PendingRecv;

class Comm {
 public:
  /// The two-argument form is the classic single-job communicator. The
  /// service layer (src/svc/) passes the extra arguments: `tags` remaps the
  /// whole canonical tag space into the job's leased band (net/tags.hpp
  /// TagMap), `shared_residency` points at the rank's manager-owned slice
  /// cache so residency survives across jobs, and `job_aborted` is the
  /// job group's private abort flag — raised on a job failure so only that
  /// group's blocked receives throw, not the whole service.
  explicit Comm(int rank, ClusterState* state, TagMap tags = {},
                Residency* shared_residency = nullptr,
                std::atomic<bool>* job_aborted = nullptr)
      : rank_(rank),
        state_(state),
        tags_(tags),
        endpoint_(&state->transport.attach(rank, tags.base)),
        shared_residency_(shared_residency),
        job_aborted_(job_aborted) {}

  int rank() const { return rank_; }
  int size() const { return state_->nranks; }

  /// Stable identity of the tag lease (0 outside the service layer): what
  /// the sched layer folds into tune keys so concurrent jobs' tuners and
  /// models never share state by accident.
  std::uint64_t job_key() const {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(tags_.base));
  }

  // -- point to point ---------------------------------------------------------

  /// Sends raw bytes to `dst` under `tag`.
  void send_bytes(int dst, int tag, std::vector<std::byte> payload);

  /// Serializes `v` and sends it. Large trivially-copyable array spans in
  /// `v` take the zero-copy path: they are gathered straight into the
  /// delivered payload instead of being staged through the serializer
  /// (counted in CommStats::bytes_zero_copy).
  template <typename T>
  void send(int dst, int tag, const T& v) {
    serial::SegmentedBytes sg = serial::to_segments(v);
    send_segments(dst, tag, sg);
  }

  /// Sends a pre-built scatter-gather payload. The borrowed segments are
  /// gathered before the call returns, so they only need to live for its
  /// duration. Every send delivers on the calling rank thread and never
  /// blocks: a full ring spills into its overflow lane, and a large
  /// payload changes hands whole.
  void send_segments(int dst, int tag, serial::SegmentedBytes sg);

  /// Posts a receive for (src, tag); wildcards as in recv. The match is
  /// claimed at wait()/test() time, and wait_any races several handles.
  PendingRecv irecv(int src, int tag);

  /// Blocking receive matching (src, tag); wildcards kAnySource / kAnyTag.
  Message recv_message(int src, int tag);

  /// Blocking typed receive.
  template <typename T>
  T recv(int src, int tag) {
    Message m = recv_message(src, tag);
    return serial::from_bytes<T>(m.payload);
  }

  /// Non-blocking receive: returns the matching message if one is already
  /// queued (the MPI_Iprobe + MPI_Recv idiom).
  std::optional<Message> try_recv_message(int src, int tag);

  template <typename T>
  std::optional<T> try_recv(int src, int tag) {
    auto m = try_recv_message(src, tag);
    if (!m) return std::nullopt;
    return serial::from_bytes<T>(m->payload);
  }

  // -- collectives ------------------------------------------------------------
  // All ranks must call each collective in the same order.

  /// Dissemination barrier: round r signals rank + 2^r (mod P), so every
  /// rank is released after ceil(log2 P) rounds.
  void barrier();

  /// Root's value is copied to everyone down a binomial tree: interior
  /// ranks forward the serialized payload to their subtree children, so no
  /// rank sends more than ceil(log2 P) messages.
  template <typename T>
  void broadcast(T& v, int root = 0) {
    CollectiveScope scope(*this, Collective::kBroadcast);
    if (size() == 1) return;
    std::vector<std::byte> bytes;
    if (rank_ == root) bytes = serial::to_bytes(v);
    bcast_bytes(bytes, root, kTagBroadcast);
    if (rank_ != root) v = serial::from_bytes<T>(bytes);
  }

  /// Root receives everyone's value, indexed by rank. Values climb a
  /// binomial tree as contiguous subtree bundles: the root merges
  /// ceil(log2 P) bundles instead of accepting P-1 sequential messages.
  template <typename T>
  std::vector<T> gather(const T& v, int root = 0) {
    CollectiveScope scope(*this, Collective::kGather);
    const int p = size();
    if (p == 1) return {v};
    const int vrank = (rank_ - root + p) % p;
    // `sub` holds values for vranks [vrank, vrank + sub.size()), contiguous.
    std::vector<T> sub;
    sub.push_back(v);
    int round = 0;
    for (int mask = 1; mask < p; mask <<= 1, ++round) {
      if (vrank & mask) {
        send(world_of(vrank - mask, root), kTagGather + round, sub);
        return {};
      }
      if (vrank + mask < p) {
        auto child = recv<std::vector<T>>(world_of(vrank + mask, root),
                                          kTagGather + round);
        sub.insert(sub.end(), std::make_move_iterator(child.begin()),
                   std::make_move_iterator(child.end()));
      }
    }
    // vrank 0 == root: un-rotate from vrank order to world-rank order.
    std::vector<T> all(static_cast<std::size_t>(p));
    for (int i = 0; i < p; ++i) {
      all[static_cast<std::size_t>((i + root) % p)] =
          std::move(sub[static_cast<std::size_t>(i)]);
    }
    return all;
  }

  /// Root supplies one item per rank; each rank gets its own. Items travel
  /// down the binomial broadcast tree as subtree bundles that halve at each
  /// level, so the root sends ceil(log2 P) bundles.
  template <typename T>
  T scatter(const std::vector<T>& items, int root = 0) {
    CollectiveScope scope(*this, Collective::kScatter);
    const int p = size();
    if (rank_ == root) {
      TRIOLET_CHECK(static_cast<int>(items.size()) == p,
                    "scatter needs one item per rank");
    }
    if (p == 1) return items[0];
    const int vrank = (rank_ - root + p) % p;
    // `mine[i]` is the item destined for vrank + i.
    std::vector<T> mine;
    int mask = 1, round = 0;
    if (vrank == 0) {
      mine.reserve(static_cast<std::size_t>(p));
      for (int i = 0; i < p; ++i) {
        mine.push_back(items[static_cast<std::size_t>((i + root) % p)]);
      }
      for (; mask < p; mask <<= 1) ++round;
    } else {
      for (; mask < p; mask <<= 1, ++round) {
        if (vrank & mask) {
          mine = recv<std::vector<T>>(world_of(vrank - mask, root),
                                      kTagScatter + round);
          break;
        }
      }
    }
    for (mask >>= 1, --round; mask > 0; mask >>= 1, --round) {
      if (vrank + mask < p && static_cast<int>(mine.size()) > mask) {
        std::vector<T> upper(
            std::make_move_iterator(mine.begin() + mask),
            std::make_move_iterator(mine.end()));
        mine.resize(static_cast<std::size_t>(mask));
        send(world_of(vrank + mask, root), kTagScatter + round, upper);
      }
    }
    return std::move(mine[0]);
  }

  /// Combines all ranks' values at root along a binomial tree. Each
  /// interior node computes op(lower-rank block, higher-rank block) over
  /// contiguous rank blocks, so the combine tree is fixed and results are
  /// bitwise deterministic run-to-run (for associative ops it equals the
  /// linear fold; floating-point parenthesization differs). Non-root ranks
  /// get a default T.
  template <typename T, typename Op>
  T reduce(const T& v, Op op, int root = 0) {
    CollectiveScope scope(*this, Collective::kReduce);
    const int p = size();
    if (p == 1) return v;
    const int vrank = (rank_ - root + p) % p;
    T acc = v;
    int round = 0;
    for (int mask = 1; mask < p; mask <<= 1, ++round) {
      if (vrank & mask) {
        send(world_of(vrank - mask, root), kTagReduce + round, acc);
        return T{};
      }
      if (vrank + mask < p) {
        // acc covers [vrank, vrank+mask); the child covers the block above.
        acc = op(std::move(acc), recv<T>(world_of(vrank + mask, root),
                                         kTagReduce + round));
      }
    }
    return acc;
  }

  /// Recursive-doubling allreduce: ceil(log2 P) pairwise exchange rounds,
  /// preceded (followed) by a fold-in (fold-out) step when P is not a power
  /// of two. Every rank combines blocks in the same fixed order, so all
  /// ranks return bitwise identical results.
  template <typename T, typename Op>
  T allreduce(const T& v, Op op) {
    CollectiveScope scope(*this, Collective::kAllreduce);
    const int p = size();
    if (p == 1) return v;
    int pof2 = 1;
    while (pof2 * 2 <= p) pof2 *= 2;
    const int rem = p - pof2;
    T acc = v;
    // Fold-in: the first 2*rem ranks collapse pairwise so pof2 stay active.
    int newrank;
    if (rank_ < 2 * rem) {
      if (rank_ % 2 == 0) {
        send(rank_ + 1, kTagAllreduce + 0, acc);
        newrank = -1;
      } else {
        acc = op(recv<T>(rank_ - 1, kTagAllreduce + 0), std::move(acc));
        newrank = rank_ / 2;
      }
    } else {
      newrank = rank_ - rem;
    }
    int round = 1;
    if (newrank >= 0) {
      for (int mask = 1; mask < pof2; mask <<= 1, ++round) {
        const int partner_new = newrank ^ mask;
        const int partner =
            partner_new < rem ? partner_new * 2 + 1 : partner_new + rem;
        send(partner, kTagAllreduce + round, acc);
        T other = recv<T>(partner, kTagAllreduce + round);
        acc = newrank < partner_new ? op(std::move(acc), std::move(other))
                                    : op(std::move(other), std::move(acc));
      }
    } else {
      for (int mask = 1; mask < pof2; mask <<= 1) ++round;
    }
    // Fold-out: folded ranks receive the final value from their partner.
    if (rank_ < 2 * rem) {
      if (rank_ % 2 == 0) {
        acc = recv<T>(rank_ + 1, kTagAllreduce + round);
      } else {
        send(rank_ - 1, kTagAllreduce + round, acc);
      }
    }
    return acc;
  }

  /// Every rank receives everyone's value, indexed by rank (MPI_Allgather).
  /// Recursive doubling over contiguous rank blocks, with the same
  /// fold-in/fold-out step as allreduce for non-power-of-two P.
  template <typename T>
  std::vector<T> allgather(const T& v) {
    CollectiveScope scope(*this, Collective::kAllgather);
    const int p = size();
    if (p == 1) return {v};
    int pof2 = 1;
    while (pof2 * 2 <= p) pof2 *= 2;
    const int rem = p - pof2;
    // `acc` is a contiguous world-rank block of values.
    std::vector<T> acc;
    int newrank;
    if (rank_ < 2 * rem) {
      if (rank_ % 2 == 0) {
        send(rank_ + 1, kTagAllgather + 0, v);
        newrank = -1;
      } else {
        acc.push_back(recv<T>(rank_ - 1, kTagAllgather + 0));
        acc.push_back(v);
        newrank = rank_ / 2;
      }
    } else {
      acc.push_back(v);
      newrank = rank_ - rem;
    }
    int round = 1;
    if (newrank >= 0) {
      for (int mask = 1; mask < pof2; mask <<= 1, ++round) {
        const int partner_new = newrank ^ mask;
        const int partner =
            partner_new < rem ? partner_new * 2 + 1 : partner_new + rem;
        send(partner, kTagAllgather + round, acc);
        auto other = recv<std::vector<T>>(partner, kTagAllgather + round);
        if (newrank < partner_new) {
          acc.insert(acc.end(), std::make_move_iterator(other.begin()),
                     std::make_move_iterator(other.end()));
        } else {
          other.insert(other.end(), std::make_move_iterator(acc.begin()),
                       std::make_move_iterator(acc.end()));
          acc = std::move(other);
        }
      }
    } else {
      for (int mask = 1; mask < pof2; mask <<= 1) ++round;
    }
    if (rank_ < 2 * rem) {
      if (rank_ % 2 == 0) {
        acc = recv<std::vector<T>>(rank_ + 1, kTagAllgather + round);
      } else {
        send(rank_ - 1, kTagAllgather + round, acc);
      }
    }
    return acc;
  }

  /// Copy of this rank's counters. Two snapshots subtract into the delta
  /// of everything between them: `auto d = comm.snapshot_stats() - before;`
  /// — the per-round attribution the autotuner and the benches are built
  /// on.
  CommStats snapshot_stats() const { return stats_; }

  /// Mutable scheduler counters: the sched/ layer records its protocol
  /// activity here so cluster-level CommStats aggregation picks it up.
  SchedStats& sched_stats() { return stats_.sched; }

  /// Mutable residency counters (rank-thread only, like sched_stats).
  ResidencyStats& residency_stats() { return stats_.residency; }

  /// Mutable intra-node pool counters (rank-thread only, like sched_stats).
  runtime::PoolStats& pool_stats() { return stats_.pool; }

  /// Mutable view/halo counters (rank-thread only, like sched_stats).
  ViewStats& view_stats() { return stats_.views; }

  /// Claims the next scheduler epoch for a run_chunks invocation. run_chunks
  /// is collective, so every rank claims the same sequence of epochs and
  /// sender/receiver agree on the epoch's rotated (request, grant) tag pair
  /// (see sched_request_tag in tags.hpp) without negotiating.
  int next_sched_epoch() { return sched_epoch_++; }

  /// Opaque per-Comm state slot for the scheduler layer (rank-thread only).
  /// sched/ keeps its implicit AutoTuner registry here so iterative kAuto
  /// jobs carry measurements across rounds without the caller owning any
  /// state; net stays ignorant of the stored type.
  std::shared_ptr<void>& sched_state() { return sched_state_; }

  // -- slice residency ----------------------------------------------------------

  /// This rank's residency state (receive-side slice cache + per-peer
  /// sender models). Outside the service layer it is created on first use
  /// with the budget captured from slice_cache_budget() and lives as long
  /// as the Comm; under a JobManager it is the manager-owned per-rank
  /// Residency shared by every job on this rank, so cached slices survive
  /// across jobs (guarded by Residency::mu — see net/residency.hpp).
  Residency& residency() {
    if (shared_residency_) return *shared_residency_;
    if (!residency_) {
      residency_ = std::make_unique<Residency>(slice_cache_budget(),
                                               &stats_.residency);
    }
    return *residency_;
  }

  /// False when the slice-cache budget is zero: every sender falls back to
  /// the plain inline/zero-copy path. Must evaluate identically on all
  /// ranks (the budget is process-global).
  bool residency_enabled() { return residency().budget > 0; }

  // -- services -----------------------------------------------------------------
  //
  // A service is a handler for one reserved tag that blocking receives
  // dispatch as a side effect: while this rank waits for its own message,
  // queued service messages (e.g. residency fetch requests from a worker
  // whose cache missed) are handled instead of deadlocking the requester.
  // Handlers run on the rank thread, always listed *before* the user
  // pattern, so a wildcard receive can never steal a service message.

  /// Registers `handler` for (kAnySource, tag). One handler per tag. `tag`
  /// is canonical; it is stored mapped so dispatch matches mapped traffic.
  void set_service(int tag, std::function<void(Message&)> handler);

  /// Removes the handler for `tag` (no-op when absent).
  void clear_service(int tag);

  /// True when a handler is registered for canonical `tag` (idempotent
  /// installation, e.g. the residency fetch service).
  bool has_service(int tag) const;

  /// Drains and dispatches every queued service message without blocking —
  /// for request-polling loops that do not go through a blocking receive.
  void poll_services();

 private:
  // Reserved tag layout: one 64-tag band per collective, one tag per tree
  // round within the band, so concurrent rounds of one collective can never
  // be confused even under pathological scheduling.
  static constexpr int kTagBandBits = 6;
  static constexpr int kTagBarrier = kFirstReservedTag + (0 << kTagBandBits);
  static constexpr int kTagBroadcast = kFirstReservedTag + (1 << kTagBandBits);
  static constexpr int kTagGather = kFirstReservedTag + (2 << kTagBandBits);
  static constexpr int kTagScatter = kFirstReservedTag + (3 << kTagBandBits);
  static constexpr int kTagReduce = kFirstReservedTag + (4 << kTagBandBits);
  static constexpr int kTagAllreduce = kFirstReservedTag + (5 << kTagBandBits);
  static constexpr int kTagAllgather = kFirstReservedTag + (6 << kTagBandBits);

  /// RAII attribution of point-to-point traffic to the enclosing
  /// collective; only the outermost collective owns the traffic.
  struct CollectiveScope {
    CollectiveScope(Comm& c, Collective k)
        : comm_(&c), owner_(c.active_collective_ < 0) {
      if (owner_) {
        comm_->active_collective_ = static_cast<int>(k);
        comm_->stats_.collectives[static_cast<std::size_t>(k)].calls += 1;
      }
    }
    ~CollectiveScope() {
      if (owner_) comm_->active_collective_ = -1;
    }
    CollectiveScope(const CollectiveScope&) = delete;
    CollectiveScope& operator=(const CollectiveScope&) = delete;

    Comm* comm_;
    bool owner_;
  };

  /// World rank of virtual rank `vrank` in a tree rooted at `root`.
  int world_of(int vrank, int root) const { return (vrank + root) % size(); }

  /// Binomial-tree broadcast of a raw payload (root's `bytes` in, every
  /// rank's `bytes` out).
  void bcast_bytes(std::vector<std::byte>& bytes, int root, int tag_base);

  friend class PendingRecv;

  void check_dst(int dst) const {
    TRIOLET_CHECK(dst >= 0 && dst < size(), "send to invalid rank");
    TRIOLET_CHECK(dst != rank_, "self-sends are not supported; use local data");
  }

  /// Hands a scatter-gather payload to the transport endpoint for `dst`
  /// and counts it.
  void deliver_segments(int dst, int tag, serial::SegmentedBytes sg);

  friend std::size_t wait_any(std::span<PendingRecv> recvs);

  /// Checksum + receive-side accounting shared by every recv flavor.
  /// Service traffic passes attribute_collective = false so fetch requests
  /// handled inside a collective are not counted as collective traffic.
  void finish_recv(const Message& m, bool attribute_collective = true);

  /// Blocks for the earliest message matching a service pattern or one of
  /// `user` (in that priority for a single message); dispatches service
  /// messages in place and loops, returns the first user match with
  /// `which_user` set to its index in `user`.
  Message pop_with_services(std::span<const std::pair<int, int>> user,
                            std::size_t& which_user);

  /// Runs the handler for services_[idx] with collective attribution
  /// suspended.
  void dispatch_service(std::size_t idx, Message& m);

  int rank_;
  ClusterState* state_;
  /// Canonical-to-leased-band tag map; immutable after construction.
  TagMap tags_;
  /// The transport endpoint for this rank in its tag band.
  Transport::Endpoint* endpoint_ = nullptr;
  /// Manager-owned per-rank residency (null outside the service layer).
  Residency* shared_residency_ = nullptr;
  /// Per-job-group abort flag (null outside the service layer).
  std::atomic<bool>* job_aborted_ = nullptr;
  /// Rank-thread-only stats: every send and every receive is counted on
  /// the rank thread, so no field needs a lock or an atomic.
  CommStats stats_;
  std::unique_ptr<Residency> residency_;
  /// (tag, handler) pairs, rank-thread only.
  std::vector<std::pair<int, std::function<void(Message&)>>> services_;

  /// Scheduler epoch counter (rank-thread only): one epoch per collective
  /// run_chunks call, advanced identically on every rank.
  int sched_epoch_ = 0;
  /// See sched_state(): opaque scheduler-layer state (rank-thread only).
  std::shared_ptr<void> sched_state_;
  int active_collective_ = -1;
};

/// Waitable handle for one posted receive. Matching is pull-based: the
/// message is claimed from the transport at wait()/test() time, so posting is
/// free and several handles may race via wait_any. Completion is sticky —
/// after the first successful wait()/test(), message() returns the match.
class PendingRecv {
 public:
  PendingRecv() = default;

  bool valid() const { return comm_ != nullptr; }
  bool completed() const { return completed_; }

  /// Blocks until the match arrives (throws ClusterAborted on abort).
  Message& wait() {
    TRIOLET_CHECK(valid(), "wait on an empty PendingRecv");
    if (!completed_) {
      msg_ = comm_->recv_message(src_, tag_);
      completed_ = true;
    }
    return msg_;
  }

  /// Claims the match if it is already queued.
  bool test() {
    TRIOLET_CHECK(valid(), "test on an empty PendingRecv");
    if (completed_) return true;
    auto m = comm_->try_recv_message(src_, tag_);
    if (!m) return false;
    msg_ = std::move(*m);
    completed_ = true;
    return true;
  }

  /// Blocking typed receive: wait() + deserialize.
  template <typename T>
  T get() {
    return serial::from_bytes<T>(wait().payload);
  }

  /// The matched message (only after completion).
  Message& message() {
    TRIOLET_CHECK(completed_, "message() before completion");
    return msg_;
  }

 private:
  friend class Comm;
  friend std::size_t wait_any(std::span<PendingRecv> recvs);

  PendingRecv(Comm* comm, int src, int tag)
      : comm_(comm), src_(src), tag_(tag) {}

  Comm* comm_ = nullptr;
  int src_ = kAnySource;
  int tag_ = kAnyTag;
  bool completed_ = false;
  Message msg_;
};

inline PendingRecv Comm::irecv(int src, int tag) {
  return PendingRecv(this, src, tag);
}

/// Blocks until at least one receive in `recvs` has a match; completes it
/// and returns its index. Already-completed handles win immediately. All
/// handles must belong to the same Comm.
std::size_t wait_any(std::span<PendingRecv> recvs);

/// Completes every receive in `recvs` (in no particular order).
inline void wait_all(std::span<PendingRecv> recvs) {
  for (auto& r : recvs) r.wait();
}

}  // namespace triolet::net
