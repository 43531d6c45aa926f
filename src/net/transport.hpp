#pragma once

// Transport: the data plane under Comm.
//
// Comm implements the MPI-shaped API (typed sends, collectives, services,
// stats attribution); the Transport moves finished payloads between ranks
// and matches them on the receive side. It is the lock-free ring plane:
// per-(sender, receiver) SPSC descriptor rings drained into a
// receiver-private tag-indexed match table, slab-pooled eager payloads, and
// an ownership-passing rendezvous path for large messages. The building
// blocks live in net/ring_transport.hpp, the wiring in ring_transport.cpp.
//
// One Transport is one P*P fabric with a private matching context, the
// analogue of an MPI communicator: traffic never leaves it, so concurrent
// service jobs are kept apart by running each on a fabric of its own
// (src/svc/).
//
// Threading contract:
//   - only rank r's thread calls deliver() on r's endpoint, so each
//     (sender, receiver) ring has exactly one producer.
//   - pop_match / pop_match_any / try_pop_match on an endpoint are called
//     only by the owning rank thread.
//   - purge() requires the fabric to be quiescent: no rank thread is
//     sending or receiving (the service layer purges a slot's fabric after
//     joining the slot's rank threads).
//   - interrupt_all() and inject() may be called from any thread.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "serial/bytes.hpp"
#include "support/fields.hpp"

namespace triolet::net {

/// Default eager threshold when neither TransportOptions::eager_bytes nor
/// TRIOLET_EAGER_BYTES overrides it.
inline constexpr std::size_t kDefaultEagerBytes = 4096;

struct TransportOptions {
  /// 0 = unbounded; nonzero models bounded message buffers (BufferOverflow
  /// thrown at the sender).
  std::size_t max_message_bytes = 0;
  /// Payloads <= this many bytes are copied inline into a pooled slab
  /// (eager); larger payloads change hands as owned buffers (rendezvous).
  /// -1 = resolve from TRIOLET_EAGER_BYTES, default kDefaultEagerBytes.
  /// 0 is valid and forces the rendezvous path for every non-empty payload.
  long eager_bytes = -1;
};

/// Message-plane counters the transport increments as it moves traffic:
/// protocol split and buffer-pool behavior. Plain fields, bumped by the
/// sending rank's thread only. After warmup, pool_misses staying flat is
/// the zero-steady-state-allocation property; ring_full_stalls counts sends
/// that overflowed a full ring into the (ordered, unbounded) overflow lane.
struct MsgStats {
  std::int64_t eager_msgs = 0;        // payloads copied into pooled slabs
  std::int64_t rendezvous_msgs = 0;   // payloads handed off whole
  std::int64_t pool_hits = 0;         // slab allocations served by freelists
  std::int64_t pool_misses = 0;       // slab allocations that hit the heap
  std::int64_t ring_full_stalls = 0;  // sends diverted to the overflow lane
};

TRIOLET_STATS_FIELDS(MsgStats, eager_msgs, rendezvous_msgs, pool_hits,
                     pool_misses, ring_full_stalls)

class Transport {
  struct Receiver;  // one rank's rings, match table and parker (.cpp)

 public:
  /// One rank's handle on the fabric: a (transport, rank) pair, cheap to
  /// copy. Valid for the transport's lifetime.
  class Endpoint {
   public:
    Endpoint(Transport* transport, int rank)
        : transport_(transport), rank_(rank) {}

    /// Ships `sg` to rank `dst` under `tag`, stamped with
    /// sg.stream_checksum(). Borrowed segments in `sg` are copied before
    /// return, so they only need to live for the call. Throws
    /// BufferOverflow when sg.size() exceeds the configured limit.
    void deliver(int dst, int tag, serial::SegmentedBytes sg,
                 MsgStats& stats);

    /// Blocks until a message matching (src, tag) is available and removes
    /// it. kAnySource / kAnyTag act as wildcards. Throws ClusterAborted
    /// when `aborted` is raised while waiting.
    Message pop_match(int src, int tag, const std::atomic<bool>& aborted);

    /// Blocks until a message matching any of `patterns` is available;
    /// removes and returns it with `which` set to the matching pattern
    /// index. When several patterns could match queued messages, the
    /// earliest-arrived message wins (and ties go to the lowest pattern
    /// index), preserving per-(src, tag) FIFO delivery.
    Message pop_match_any(std::span<const std::pair<int, int>> patterns,
                          const std::atomic<bool>& aborted,
                          std::size_t& which);

    /// Non-blocking pop_match; returns false when nothing matches.
    bool try_pop_match(int src, int tag, Message& out);

   private:
    Transport* transport_;
    int rank_;
  };

  Transport(int nranks, const TransportOptions& options);
  ~Transport();
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// The endpoint of `rank`.
  Endpoint endpoint(int rank);

  /// Drops every pending message on every rank — including descriptors
  /// still in flight inside rings — returning their buffers to the pool.
  /// See the quiescence contract in the file comment.
  void purge();

  /// Wakes every blocked receiver without delivering anything; waiters
  /// re-check their abort flag and either throw ClusterAborted or go back
  /// to sleep.
  void interrupt_all();

  /// Test hook: deposits `m` at rank `dst` exactly as given — checksum and
  /// src are NOT recomputed, so tests can inject corrupted traffic.
  void inject(int dst, Message m);

 private:
  Receiver& rx(int rank) { return *rx_[static_cast<std::size_t>(rank)]; }

  const std::size_t max_message_bytes_;
  const std::size_t eager_bytes_;
  std::vector<std::unique_ptr<Receiver>> rx_;
};

}  // namespace triolet::net
