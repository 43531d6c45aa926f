#pragma once

// Per-rank slice cache: the residency store behind rescatter avoidance.
//
// Each rank keeps an LRU byte-budgeted cache of the resident slices it has
// received, keyed by (source id, version, range). The *sender* keeps one
// metadata-only SliceCache per destination that mirrors the receiver's
// cache deterministically: both sides apply the same insert/touch/evict
// sequence in message order (delivery is FIFO per rank pair), so the root
// can decide "receiver already holds this slice" without an ack round trip.
// Any divergence — corruption, a receiver restarting its cache — is caught
// by checksum validation at decode time and repaired through the fetch
// fallback (net/residency.hpp), never by trusting the model.
//
// Eviction is strict LRU over a byte budget (env TRIOLET_SLICE_CACHE_BYTES,
// default 256 MiB; 0 disables residency). Inserting a new version of a
// source retires every cached slice of that source's older versions first —
// stale slices can never be resurrected because the version is part of the
// key, so retiring them is purely a space optimization, applied identically
// on both sides.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>

#include "serial/residency.hpp"
#include "support/fields.hpp"

namespace triolet::net {

/// Residency counters folded into CommStats. Sender-side fields are
/// accumulated by the encode scope on the root; receiver-side fields by the
/// decode scope and cache on the workers. Cluster::run sums them over ranks.
struct ResidencyStats {
  // Sender side.
  std::int64_t tokens_sent = 0;     // slices replaced by a resident grant
  std::int64_t bytes_avoided = 0;   // payload bytes those tokens did not ship
  std::int64_t slices_inlined = 0;  // slices shipped in full (model miss)
  std::int64_t bytes_inlined = 0;
  // Receiver side.
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;        // token arrived, slice not cached
  std::int64_t checksum_failures = 0;   // cached bytes failed validation
  std::int64_t fetches = 0;             // fallback round trips to the owner
  std::int64_t evictions = 0;
  std::int64_t bytes_inserted = 0;
};

TRIOLET_STATS_FIELDS(ResidencyStats, tokens_sent, bytes_avoided,
                     slices_inlined, bytes_inlined, cache_hits, cache_misses,
                     checksum_failures, fetches, evictions, bytes_inserted)

/// LRU byte-budgeted slice store. With `stats == nullptr` the cache is a
/// sender-side *model*: it tracks lengths and checksums but stores no bytes
/// (insert_meta), and its evictions are not counted — only the receiver's
/// real cache reports statistics.
class SliceCache {
 public:
  struct Entry {
    std::size_t len = 0;
    /// Meaningful only for model entries (insert_meta): the token the
    /// sender writes, the slice's serial::slice_checksum. Receiver entries
    /// leave it 0 — a cache hit recomputes slice_checksum from `bytes`,
    /// which is what catches a slice corrupted after insert.
    std::uint64_t checksum = 0;
    /// The slice's `len` bytes (null in model mode). Decoded sources share
    /// this buffer instead of copying it, so retiring or evicting the entry
    /// frees the bytes only when the last such view is dropped; the budget
    /// counts what the cache holds, not what views still pin.
    std::shared_ptr<std::byte> bytes;
  };

  explicit SliceCache(std::size_t budget_bytes,
                      ResidencyStats* stats = nullptr)
      : budget_(budget_bytes), stats_(stats) {}

  /// Finds `key` and marks it most-recently-used. Returns nullptr on miss.
  const Entry* lookup(const serial::SliceKey& key);

  /// Copies the payload into a new buffer and stores it (receiver side).
  /// Budget accounting counts the payload length; the new entry itself may
  /// be evicted immediately when it alone exceeds the budget —
  /// deterministically, on both sides. Returns the buffer either way.
  serial::SliceBuffer insert(const serial::SliceKey& key,
                             std::span<const std::byte> payload);

  /// Stores length + checksum only (sender-side model). Applies the exact
  /// same retirement/eviction sequence as insert() so the model tracks the
  /// receiver.
  void insert_meta(const serial::SliceKey& key, std::size_t len,
                   std::uint64_t checksum);

  /// Erases `key`'s entry only while it still holds `bytes` (null for a
  /// model entry): an entry another job replaced after the caller read it
  /// stays.
  void erase(const serial::SliceKey& key, const std::byte* bytes);

  std::size_t bytes_held() const { return held_; }
  std::size_t entries() const { return map_.size(); }
  std::size_t budget() const { return budget_; }

  /// Flips the byte at `offset` of one cached payload longer than `offset`,
  /// in place, under any view that shares it (tests: forces the
  /// checksum-mismatch fetch fallback). Returns false when no such entry
  /// exists.
  bool corrupt_one_for_testing(std::size_t offset = 0);

 private:
  struct Node {
    Entry entry;
    std::list<serial::SliceKey>::iterator pos;  // position in lru_
  };

  void place(const serial::SliceKey& key, Entry e);
  void retire_older_versions(const serial::SliceKey& key);
  void evict_until_within_budget();
  void erase_node(
      std::unordered_map<serial::SliceKey, Node, serial::SliceKeyHash>::iterator
          it);

  std::size_t budget_;
  ResidencyStats* stats_;
  std::size_t held_ = 0;
  std::list<serial::SliceKey> lru_;  // front = most recently used
  std::unordered_map<serial::SliceKey, Node, serial::SliceKeyHash> map_;
};

/// The per-rank residency state hung off a Comm: this rank's receive-side
/// cache plus one deterministic model per destination it scatters to.
///
/// Under the service layer (src/svc/) one Residency per rank is shared by
/// every concurrent job on that rank, so cached slices survive across jobs
/// — the rescatter-avoidance win of a resident service. All access then
/// goes through `mu` (the encode/decode scopes in net/residency.hpp take
/// it). Isolation across jobs needs no extra keying: every SliceKey embeds
/// a process-unique source id + version (dist/dist_array.hpp), so two jobs
/// collide only when they deliberately share one DistArray — in which case
/// sharing the cached bytes is exactly the point. Concurrent jobs encoding
/// to one destination can interleave their model updates in an order that
/// differs from the receiver's insert order; any divergence that causes is
/// caught by checksum validation at decode time and repaired through the
/// fetch fallback, never trusted.
struct Residency {
  Residency(std::size_t budget, ResidencyStats* stats)
      : budget(budget), cache(budget, stats) {}

  std::size_t budget;
  /// Guards cache + peer_models when the Residency is shared across jobs.
  /// Single-job Comms take it too (uncontended — cheap) for one code path.
  std::mutex mu;
  SliceCache cache;
  std::unordered_map<int, SliceCache> peer_models;

  SliceCache& model_for(int dst) {
    auto it = peer_models.find(dst);
    if (it == peer_models.end()) {
      it = peer_models.emplace(dst, SliceCache(budget, nullptr)).first;
    }
    return it->second;
  }
};

/// The process-wide slice-cache byte budget: TRIOLET_SLICE_CACHE_BYTES
/// (plain byte count; unset or invalid -> 256 MiB; "0" disables residency).
/// Each Comm captures it lazily on first residency use.
std::size_t slice_cache_budget();

/// Overrides the budget (tests and benchmarks; takes effect for Comms that
/// have not yet captured it — i.e. fresh Cluster::run invocations).
void set_slice_cache_budget(std::size_t bytes);

}  // namespace triolet::net
