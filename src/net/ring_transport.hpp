#pragma once

// The lock-free messaging data plane behind net::Transport.
//
// Layout per tag-band domain (docs/INTERNALS.md §16):
//
//   sender r ── SpscRing(r, s) ──▶ receiver s drains into MatchTable(s)
//
// One single-producer/single-consumer descriptor ring per ordered
// (sender, receiver) pair, so sends are a store + release-publish with no
// lock and no contention between senders. The receiver drains every ring
// into a private tag-indexed match table — open-addressed buckets keyed by
// (src, tag), FIFO per key, plus one arrival-order list for wildcard
// windows — so pop_match is a hash lookup instead of an O(pending) scan of
// one shared queue under a lock.
//
// A descriptor is fixed-size and trivially copyable. Payloads ride along in
// one of two ways:
//
//   eager       size <= eager_bytes: bytes are gathered into a pooled slab
//               by the sender; the receiver adopts the slab and releases it
//               to the pool when the Payload dies.
//   rendezvous  larger payloads change hands as a whole owned buffer (an
//               RzNode holding the sender's flat vector, placement-new'd in
//               a small slab): ownership passes, nothing is re-copied, and
//               the sender never blocks — buffered-send semantics are
//               preserved exactly (the symmetric collectives depend on
//               them).
//
// Ring overflow never blocks or drops: each pair also has a mutex-guarded
// unbounded overflow deque. Once a send overflows, subsequent sends append
// there (preserving order) until the receiver has drained both; the stall
// is counted in MsgStats::ring_full_stalls.
//
// This header exposes the building blocks (descriptor, ring, match table)
// so they can be unit-tested in isolation; ring_transport.cpp wires P*P of
// them together into net::Transport (net/transport.hpp).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "net/pool.hpp"
#include "support/macros.hpp"

namespace triolet::net {

/// Slots per SPSC ring. 256 descriptors absorb every burst the collectives
/// and the scheduler produce; deeper backlogs spill to the overflow deque.
inline constexpr std::size_t kRingSlots = 256;

/// Fixed-size message descriptor carried through the rings.
struct RingDesc {
  enum Kind : std::uint32_t { kEager = 0, kRendezvous = 1 };

  std::int32_t src = 0;
  std::int32_t tag = 0;
  std::uint32_t kind = kEager;
  /// BufferPool class of `ptr` (kHeapClass possible; meaningless when ptr
  /// is null — a 0-byte eager message carries no slab at all).
  std::uint32_t pclass = kHeapClass;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
  /// Eager: the payload slab. Rendezvous: an RzNode. Null: empty payload.
  void* ptr = nullptr;
};
static_assert(std::is_trivially_copyable_v<RingDesc>);

/// Rendezvous handoff node: the sender's flat payload vector, moved — not
/// copied — to the receiver. Lives placement-new'd in a pooled slab.
struct RzNode {
  std::vector<std::byte> flat;
};

/// Bounded single-producer/single-consumer descriptor ring with an
/// unbounded mutex-guarded overflow lane behind it. The fast path (ring
/// not full, no overflow pending) is entirely lock-free; the overflow
/// protocol keeps per-pair FIFO order:
///
///   - only the (single) producer ever sets ov_active_, so its fast-path
///     relaxed read can never be a stale false while messages sit in the
///     overflow deque;
///   - the consumer drains the ring fully before the deque, and descriptors
///     stop entering the ring the moment the deque becomes active, so ring
///     entries always predate deque entries.
class SpscRing {
 public:
  SpscRing() : slots_(new RingDesc[kRingSlots]) {}

  /// Producer side. Returns true when the descriptor took the lock-free
  /// fast path, false when it went through the overflow deque (a stall).
  bool push(const RingDesc& d) {
    if (!ov_active_.load(std::memory_order_relaxed) && try_push_ring(d)) {
      return true;
    }
    std::lock_guard<std::mutex> lock(ov_mu_);
    if (!ov_active_.load(std::memory_order_relaxed)) {
      // The consumer may have drained since the fast path failed; retry
      // the ring so the deque only activates under real backlog.
      if (try_push_ring(d)) return true;
      ov_active_.store(true, std::memory_order_relaxed);
    }
    overflow_.push_back(d);
    return false;
  }

  /// Consumer side: pops the oldest descriptor (ring first, then the
  /// overflow deque). Returns false when empty.
  bool pop(RingDesc& out) {
    if (pop_ring(out)) return true;
    if (!ov_active_.load(std::memory_order_relaxed)) return false;
    return pop_overflow(out);
  }

  /// Cheap maybe-nonempty probe for the consumer's park predicate (exact
  /// for the ring; conservative true while the overflow lane is active).
  bool maybe_nonempty() const {
    return head_.load(std::memory_order_relaxed) !=
               tail_.load(std::memory_order_acquire) ||
           ov_active_.load(std::memory_order_relaxed);
  }

 private:
  friend struct SpscRingTestPeer;  // drives pop_overflow in isolation

  bool pop_ring(RingDesc& out) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) return false;
    out = slots_[h & (kRingSlots - 1)];
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

  /// The locked half of pop(). Between pop()'s empty ring read and this
  /// lock, the producer may have filled the ring and spilled into the
  /// deque; every ring entry is older than every deque entry, so the ring
  /// is read again first or a spilled descriptor would overtake it.
  bool pop_overflow(RingDesc& out) {
    std::lock_guard<std::mutex> lock(ov_mu_);
    if (pop_ring(out)) return true;
    if (overflow_.empty()) {
      ov_active_.store(false, std::memory_order_relaxed);
      return false;
    }
    out = overflow_.front();
    overflow_.pop_front();
    if (overflow_.empty()) ov_active_.store(false, std::memory_order_relaxed);
    return true;
  }

  bool try_push_ring(const RingDesc& d) {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) == kRingSlots) return false;
    slots_[t & (kRingSlots - 1)] = d;
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  std::unique_ptr<RingDesc[]> slots_;
  alignas(64) std::atomic<std::uint64_t> tail_{0};  // producer-owned
  alignas(64) std::atomic<std::uint64_t> head_{0};  // consumer-owned
  alignas(64) std::mutex ov_mu_;
  std::deque<RingDesc> overflow_;
  std::atomic<bool> ov_active_{false};
};

/// Receiver-private pending-message index: open-addressed hash of (src,
/// tag) buckets, FIFO within each bucket, threaded onto one arrival-order
/// list for wildcard matching. No locks anywhere — only the owning rank
/// thread touches it. Entries live in pooled slabs recycled through a local
/// freelist, so steady-state insert/remove allocates nothing.
///
/// Matching invariant: the earliest entry in any arrival-window that a
/// pattern selects is always the head of its bucket (same-bucket entries
/// share (src, tag) and arrive in order), so every removal is an O(1)
/// bucket-head pop and per-(src, tag) FIFO order is structural.
class MatchTable {
 public:
  struct Entry {
    Entry* bucket_next;
    Entry* arrival_prev;
    Entry* arrival_next;
    std::uint64_t seq;
    Message msg;
  };

  explicit MatchTable(int nranks = 1) : nranks_(nranks) { rehash(64); }
  ~MatchTable() { clear_and_release(); }
  MatchTable(const MatchTable&) = delete;
  MatchTable& operator=(const MatchTable&) = delete;

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  void insert(Message m) {
    Entry* e = alloc_entry(std::move(m));
    Slot& s = slot_for(key_of(e->msg.src, e->msg.tag), /*create=*/true);
    if (s.tail == nullptr) {
      s.head = s.tail = e;
    } else {
      s.tail->bucket_next = e;
      s.tail = e;
    }
    // Arrival-order list tail append.
    e->arrival_prev = arrival_tail_;
    if (arrival_tail_ == nullptr) {
      arrival_head_ = e;
    } else {
      arrival_tail_->arrival_next = e;
    }
    arrival_tail_ = e;
    count_ += 1;
  }

  /// Earliest entry matching (src, tag) with wildcards and the kAnyTag
  /// window, or null. The returned pointer is valid until the next
  /// mutation; remove it with take().
  Entry* find(int src, int tag, int wild_lo, int wild_hi) {
    if (tag != kAnyTag) {
      if (src != kAnySource) {
        Slot* s = lookup(key_of(src, tag));
        return s ? s->head : nullptr;
      }
      // Any source, fixed tag: earliest head over the per-source buckets.
      Entry* best = nullptr;
      for (int r = 0; r < nranks_; ++r) {
        Slot* s = lookup(key_of(r, tag));
        if (s && s->head && (!best || s->head->seq < best->seq)) {
          best = s->head;
        }
      }
      return best;
    }
    // Wildcard tag: walk the arrival list inside the window. The first hit
    // is the earliest by construction.
    for (Entry* e = arrival_head_; e != nullptr; e = e->arrival_next) {
      if (e->msg.tag >= wild_lo && e->msg.tag < wild_hi &&
          (src == kAnySource || e->msg.src == src)) {
        return e;
      }
    }
    return nullptr;
  }

  /// Earliest entry matching any pattern; `which` gets the pattern index
  /// (ties on one entry go to the lowest index). Null when nothing matches.
  Entry* find_any(std::span<const std::pair<int, int>> patterns,
                  std::size_t& which, int wild_lo, int wild_hi) {
    Entry* best = nullptr;
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      Entry* e = find(patterns[p].first, patterns[p].second, wild_lo, wild_hi);
      if (e && (!best || e->seq < best->seq)) {
        best = e;
        which = p;
      }
    }
    return best;
  }

  /// Unlinks `e` (a pointer returned by find/find_any) and returns its
  /// message; the entry's slab goes back on the freelist.
  Message take(Entry* e) {
    Slot& s = slot_for(key_of(e->msg.src, e->msg.tag), /*create=*/false);
    // Every removable entry is its bucket's head (see class comment).
    TRIOLET_ASSERT(s.head == e);
    s.head = e->bucket_next;
    if (s.head == nullptr) s.tail = nullptr;
    unlink_arrival(e);
    count_ -= 1;
    Message out = std::move(e->msg);
    free_entry(e);
    return out;
  }

  /// Drops every entry whose tag is in [lo, hi); returns how many. Walking
  /// in arrival order means each matching entry is the earliest live entry
  /// of its (src, tag) key when visited — i.e. its bucket head — so take()
  /// applies.
  std::size_t purge_range(int lo, int hi) {
    std::size_t dropped = 0;
    for (Entry* e = arrival_head_; e != nullptr;) {
      Entry* next = e->arrival_next;
      if (e->msg.tag >= lo && e->msg.tag < hi) {
        take(e);
        dropped += 1;
      }
      e = next;
    }
    return dropped;
  }

 private:
  struct Slot {
    std::uint64_t key = kEmptyKey;
    Entry* head = nullptr;
    Entry* tail = nullptr;
  };
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  static std::uint64_t key_of(int src, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }
  static std::uint64_t hash_of(std::uint64_t key) {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdull;
    key ^= key >> 33;
    return key;
  }

  Slot* lookup(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash_of(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i].key == key) return &slots_[i];
      if (slots_[i].key == kEmptyKey) return nullptr;
    }
  }

  Slot& slot_for(std::uint64_t key, bool create) {
    Slot* s = lookup(key);
    if (s) return *s;
    TRIOLET_ASSERT(create);
    if ((used_slots_ + 1) * 10 >= slots_.size() * 7) {
      rehash(slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash_of(key) & mask;
    while (slots_[i].key != kEmptyKey) i = (i + 1) & mask;
    slots_[i].key = key;
    used_slots_ += 1;
    return slots_[i];
  }

  /// Rebuilds the slot array, dropping buckets that have gone empty (they
  /// exist only to keep probe chains intact between rehashes).
  void rehash(std::size_t new_capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    used_slots_ = 0;
    for (Slot& s : old) {
      if (s.key == kEmptyKey || s.head == nullptr) continue;
      const std::size_t mask = slots_.size() - 1;
      std::size_t i = hash_of(s.key) & mask;
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask;
      slots_[i] = s;
      used_slots_ += 1;
    }
  }

  Entry* alloc_entry(Message m) {
    std::byte* raw;
    if (free_entries_ != nullptr) {
      raw = free_entries_;
      free_entries_ = *reinterpret_cast<std::byte**>(raw);
    } else {
      auto a = BufferPool::instance().allocate(sizeof(Entry));
      TRIOLET_ASSERT(a.cls != kHeapClass);
      raw = a.p;
      entry_cls_ = a.cls;
    }
    return new (raw) Entry{nullptr, nullptr, nullptr, next_seq_++,
                           std::move(m)};
  }

  void free_entry(Entry* e) {
    e->~Entry();
    auto* raw = reinterpret_cast<std::byte*>(e);
    *reinterpret_cast<std::byte**>(raw) = free_entries_;
    free_entries_ = raw;
  }

  void unlink_arrival(Entry* e) {
    if (e->arrival_prev) {
      e->arrival_prev->arrival_next = e->arrival_next;
    } else {
      arrival_head_ = e->arrival_next;
    }
    if (e->arrival_next) {
      e->arrival_next->arrival_prev = e->arrival_prev;
    } else {
      arrival_tail_ = e->arrival_prev;
    }
  }

  void clear_and_release() {
    for (Entry* e = arrival_head_; e != nullptr;) {
      Entry* next = e->arrival_next;
      e->~Entry();
      BufferPool::instance().release(reinterpret_cast<std::byte*>(e),
                                     entry_cls_);
      e = next;
    }
    arrival_head_ = arrival_tail_ = nullptr;
    count_ = 0;
    for (std::byte* raw = free_entries_; raw != nullptr;) {
      std::byte* next = *reinterpret_cast<std::byte**>(raw);
      BufferPool::instance().release(raw, entry_cls_);
      raw = next;
    }
    free_entries_ = nullptr;
  }

  int nranks_;
  std::vector<Slot> slots_;
  std::size_t used_slots_ = 0;
  Entry* arrival_head_ = nullptr;
  Entry* arrival_tail_ = nullptr;
  std::byte* free_entries_ = nullptr;
  std::uint32_t entry_cls_ = kHeapClass;
  std::uint64_t next_seq_ = 0;
  std::size_t count_ = 0;
};

}  // namespace triolet::net
