#pragma once

// Transport: the data plane under Comm.
//
// Comm implements the MPI-shaped API (typed sends, collectives, services,
// tag mapping, stats attribution); the Transport moves finished payloads
// between ranks and matches them on the receive side. It is the lock-free
// ring plane: per-(sender, receiver) SPSC descriptor rings drained into a
// receiver-private tag-indexed match table, slab-pooled eager payloads, and
// an ownership-passing rendezvous path for large messages. The building
// blocks live in net/ring_transport.hpp, the wiring in ring_transport.cpp.
//
// Threading contract:
//   - only rank r's thread calls deliver() on r's endpoint, so each
//     (sender, receiver) ring has exactly one producer.
//   - pop_match / pop_match_any / try_pop_match on an endpoint are called
//     only by the owning rank thread.
//   - purge_tag_range(lo, hi) requires the tag range to be quiescent: no
//     rank thread is sending or receiving traffic in [lo, hi) (the service
//     layer purges a band after joining the band's rank threads).
//   - interrupt_all() and inject() may be called from any thread.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>

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
  class Domain;  // one tag band's P*P fabric (ring_transport.cpp)

 public:
  /// One rank's attachment to the transport within one tag band (a leased
  /// job band under the service layer, band 0 otherwise). The endpoint is
  /// owned by the transport and stays valid for the transport's lifetime.
  class Endpoint {
   public:
    Endpoint(Domain* domain, int rank) : domain_(domain), rank_(rank) {}

    /// Ships `sg` to rank `dst` under (already band-mapped) `tag`, stamped
    /// with sg.stream_checksum(). Borrowed segments in `sg` are copied
    /// before return, so they only need to live for the call. Throws
    /// BufferOverflow when sg.size() exceeds the configured limit.
    void deliver(int dst, int tag, serial::SegmentedBytes sg,
                 MsgStats& stats);

    /// Blocks until a message matching (src, tag) is available and removes
    /// it. kAnySource / kAnyTag act as wildcards; a kAnyTag pattern only
    /// matches tags in [wild_lo, wild_hi). Throws ClusterAborted when
    /// `aborted` (or the optional `also_aborted`) is raised while waiting.
    Message pop_match(int src, int tag, const std::atomic<bool>& aborted,
                      int wild_lo, int wild_hi,
                      const std::atomic<bool>* also_aborted);

    /// Blocks until a message matching any of `patterns` is available;
    /// removes and returns it with `which` set to the matching pattern
    /// index. When several patterns could match queued messages, the
    /// earliest-arrived message wins (and ties go to the lowest pattern
    /// index), preserving per-(src, tag) FIFO delivery.
    Message pop_match_any(std::span<const std::pair<int, int>> patterns,
                          const std::atomic<bool>& aborted,
                          std::size_t& which, int wild_lo, int wild_hi,
                          const std::atomic<bool>* also_aborted);

    /// Non-blocking pop_match; returns false when nothing matches.
    bool try_pop_match(int src, int tag, Message& out, int wild_lo,
                       int wild_hi);

   private:
    Domain* domain_;
    const int rank_;
  };

  Transport(int nranks, const TransportOptions& options);
  ~Transport();
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// The endpoint of `rank` in the band starting at `band_base` (0 = the
  /// identity band). Thread-safe; idempotent per (rank, band_base).
  Endpoint& attach(int rank, int band_base);

  /// Drops every pending message whose tag is in [lo, hi) on every rank —
  /// including descriptors still in flight inside rings — returning their
  /// buffers to the pool. Returns how many messages were dropped. See the
  /// quiescence contract in the file comment.
  std::size_t purge_tag_range(int lo, int hi);

  /// Wakes every blocked receiver without delivering anything; waiters
  /// re-check their abort flags (cluster-wide and per-job) and either
  /// throw ClusterAborted or go back to sleep.
  void interrupt_all();

  /// Test hook: deposits `m` at rank `dst` exactly as given — checksum and
  /// src are NOT recomputed, so tests can inject corrupted traffic.
  void inject(int dst, Message m);

 private:
  Domain& domain_locked(int band_base);

  const int nranks_;
  const std::size_t max_message_bytes_;
  const std::size_t eager_bytes_;

  std::mutex mu_;
  std::unordered_map<int, std::unique_ptr<Domain>> domains_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Endpoint>> endpoints_;
};

}  // namespace triolet::net
