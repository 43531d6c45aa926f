#include "net/ring_transport.hpp"

#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <thread>

#include "net/tags.hpp"
#include "net/transport.hpp"
#include "serial/bytes.hpp"

namespace triolet::net {

namespace {

/// Resolves TransportOptions::eager_bytes (-1 = TRIOLET_EAGER_BYTES env,
/// default kDefaultEagerBytes).
std::size_t resolve_eager_bytes(long option) {
  if (option >= 0) return static_cast<std::size_t>(option);
  if (const char* env = std::getenv("TRIOLET_EAGER_BYTES")) {
    const long v = std::atol(env);
    if (v >= 0) return static_cast<std::size_t>(v);
  }
  return kDefaultEagerBytes;
}

/// Receive-side spin budget before parking (drain attempts, yielding each
/// iteration so the spin is productive even on a single hardware core).
constexpr std::size_t kRecvSpinBudget = 64;

/// Spin-then-park waiter, one per receiver (a receiver is single-threaded,
/// so there is never more than one parked waiter). Wakeups follow the
/// Dekker/eventcount discipline:
///
///   receiver: lock mu -> parked = true -> seq_cst fence -> re-probe rings
///             -> cv.wait (holding mu throughout)
///   sender:   publish descriptor -> seq_cst fence -> read parked
///             -> if true: lock mu, notify
///
/// The fences guarantee at least one side sees the other (the receiver's
/// re-probe sees the descriptor, or the sender sees parked == true), and
/// taking mu around the notify closes the probe-to-wait gap, where a
/// notify that lands between a waiter's flag check and its wait is lost.
struct Parker {
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> parked{false};

  void wake() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(mu);
      cv.notify_all();
    }
  }
};

Message desc_to_message(const RingDesc& d) {
  Message m;
  m.src = d.src;
  m.tag = d.tag;
  m.checksum = d.checksum;
  if (d.kind == RingDesc::kEager) {
    if (d.ptr != nullptr) {
      m.payload = Payload::from_slab(static_cast<std::byte*>(d.ptr), d.pclass,
                                     static_cast<std::size_t>(d.size));
    }
  } else {
    auto* node = static_cast<RzNode*>(d.ptr);
    m.payload = std::move(node->flat);
    node->~RzNode();
    BufferPool::instance().release(static_cast<std::byte*>(d.ptr), d.pclass);
  }
  return m;
}

/// One receiver's state within a domain: the incoming rings (indexed by
/// sender), the private match table, the parker, and a mutex-guarded side
/// queue for inject()ed test traffic.
struct RxState {
  explicit RxState(int nranks)
      : rings(static_cast<std::size_t>(nranks)), table(nranks) {}

  std::vector<SpscRing> rings;  // rings[src]: src -> this rank
  MatchTable table;
  Parker parker;

  std::atomic<bool> inject_pending{false};
  std::mutex inject_mu;
  std::deque<Message> inject_q;

  /// Moves every queued descriptor into the match table. Returns true if
  /// anything arrived. Receiver thread only.
  bool drain() {
    bool any = false;
    RingDesc d;
    for (auto& ring : rings) {
      while (ring.pop(d)) {
        table.insert(desc_to_message(d));
        any = true;
      }
    }
    if (inject_pending.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lock(inject_mu);
      while (!inject_q.empty()) {
        table.insert(std::move(inject_q.front()));
        inject_q.pop_front();
        any = true;
      }
      inject_pending.store(false, std::memory_order_relaxed);
    }
    return any;
  }

  bool maybe_pending() const {
    for (const auto& ring : rings) {
      if (ring.maybe_nonempty()) return true;
    }
    return inject_pending.load(std::memory_order_relaxed);
  }
};

/// Parks the receiver until a sender publishes, an interrupt lands, or an
/// abort flag is raised.
void park(RxState& r, const std::atomic<bool>& aborted,
          const std::atomic<bool>* also_aborted) {
  std::unique_lock<std::mutex> lock(r.parker.mu);
  r.parker.parked.store(true, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Re-probe under the armed flag (and the lock): either this sees the
  // sender's publish, or the sender's fenced read sees parked == true and
  // it queues behind the mutex to notify after the wait is armed.
  if (!r.maybe_pending() && !aborted.load(std::memory_order_acquire) &&
      !(also_aborted && also_aborted->load(std::memory_order_acquire))) {
    r.parker.cv.wait(lock);
  }
  r.parker.parked.store(false, std::memory_order_relaxed);
}

}  // namespace

/// One tag band's private P*P fabric. Bands map a job's entire tag space
/// into a disjoint range, so traffic never crosses domains and each
/// (job, rank) pair keeps the single-consumer / single-producer invariants
/// the rings and tables rely on.
class Transport::Domain {
 public:
  Domain(int nranks, std::size_t max_message_bytes, std::size_t eager_bytes)
      : max_message_bytes_(max_message_bytes), eager_bytes_(eager_bytes) {
    rx_.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      rx_.push_back(std::make_unique<RxState>(nranks));
    }
  }

  ~Domain() { purge_all(); }

  RxState& rx(int rank) { return *rx_[static_cast<std::size_t>(rank)]; }

  void deliver(int src, int dst, int tag, serial::SegmentedBytes sg,
               MsgStats& ms) {
    const std::size_t n = sg.size();
    if (max_message_bytes_ != 0 && n > max_message_bytes_) {
      throw BufferOverflow();
    }
    RingDesc d;
    d.src = src;
    d.tag = tag;
    d.size = n;
    // The stamp is the checksum accumulated at *write* time, not a hash of
    // the gathered bytes: a borrowed span that was sliced wrong or mutated
    // between serialization and this gather fails validation at the
    // receiver instead of checksumming itself consistently.
    d.checksum = sg.stream_checksum();
    if (n <= eager_bytes_ || n == 0) {
      d.kind = RingDesc::kEager;
      if (n != 0) {
        BufferPool::Alloc a = BufferPool::instance().allocate(n);
        sg.gather_into(a.p);
        d.ptr = a.p;
        d.pclass = a.cls;
        (a.pool_hit ? ms.pool_hits : ms.pool_misses) += 1;
        if (sg.all_owned()) {
          serial::recycle_stream_buffer(sg.take_owned_storage());
        }
      }
      ms.eager_msgs += 1;
    } else {
      d.kind = RingDesc::kRendezvous;
      std::vector<std::byte> flat;
      if (!sg.take_flat(flat)) {
        // Borrowed spans are only valid for this call: gather them now into
        // a recycled buffer and pass that on. All-owned payloads above skip
        // this copy entirely — the staging vector itself changes hands.
        flat = serial::acquire_stream_buffer();
        flat.resize(n);
        sg.gather_into(flat.data());
        serial::recycle_stream_buffer(sg.take_owned_storage());
      }
      BufferPool::Alloc a = BufferPool::instance().allocate(sizeof(RzNode));
      d.ptr = new (a.p) RzNode{std::move(flat)};
      d.pclass = a.cls;
      (a.pool_hit ? ms.pool_hits : ms.pool_misses) += 1;
      ms.rendezvous_msgs += 1;
    }
    RxState& r = rx(dst);
    if (!r.rings[static_cast<std::size_t>(src)].push(d)) {
      ms.ring_full_stalls += 1;
    }
    r.parker.wake();
  }

  void inject(int dst, Message m) {
    RxState& r = rx(dst);
    {
      std::lock_guard<std::mutex> lock(r.inject_mu);
      r.inject_q.push_back(std::move(m));
      r.inject_pending.store(true, std::memory_order_release);
    }
    r.parker.wake();
  }

  void interrupt_all() {
    for (auto& r : rx_) {
      std::lock_guard<std::mutex> lock(r->parker.mu);
      r->parker.cv.notify_all();
    }
  }

  /// Sweeps in-flight descriptors into the tables, then purges [lo, hi).
  /// Quiescence contract: no rank thread is active in this domain.
  std::size_t purge_range(int lo, int hi) {
    std::size_t dropped = 0;
    for (auto& r : rx_) {
      r->drain();
      dropped += r->table.purge_range(lo, hi);
    }
    return dropped;
  }

  void purge_all() {
    for (auto& r : rx_) {
      r->drain();
      r->table.purge_range(std::numeric_limits<int>::min(),
                           std::numeric_limits<int>::max());
    }
  }

 private:
  const std::size_t max_message_bytes_;
  const std::size_t eager_bytes_;
  std::vector<std::unique_ptr<RxState>> rx_;
};

// -- Endpoint: rank r's handle on one domain. deliver() runs as sender r;
// the pop family reads rank r's RxState.

void Transport::Endpoint::deliver(int dst, int tag, serial::SegmentedBytes sg,
                                  MsgStats& ms) {
  domain_->deliver(rank_, dst, tag, std::move(sg), ms);
}

Message Transport::Endpoint::pop_match(int src, int tag,
                                       const std::atomic<bool>& aborted,
                                       int wild_lo, int wild_hi,
                                       const std::atomic<bool>* also_aborted) {
  const std::pair<int, int> pattern{src, tag};
  std::size_t which = 0;
  return pop_match_any({&pattern, 1}, aborted, which, wild_lo, wild_hi,
                       also_aborted);
}

Message Transport::Endpoint::pop_match_any(
    std::span<const std::pair<int, int>> patterns,
    const std::atomic<bool>& aborted, std::size_t& which, int wild_lo,
    int wild_hi, const std::atomic<bool>* also_aborted) {
  RxState& r = domain_->rx(rank_);
  std::size_t spins = 0;
  while (true) {
    if (r.drain()) spins = 0;
    MatchTable::Entry* e = r.table.find_any(patterns, which, wild_lo, wild_hi);
    if (e != nullptr) return r.table.take(e);
    if (aborted.load(std::memory_order_acquire) ||
        (also_aborted && also_aborted->load(std::memory_order_acquire))) {
      throw ClusterAborted();
    }
    if (spins < kRecvSpinBudget) {
      spins += 1;
      std::this_thread::yield();
      continue;
    }
    park(r, aborted, also_aborted);
  }
}

bool Transport::Endpoint::try_pop_match(int src, int tag, Message& out,
                                        int wild_lo, int wild_hi) {
  RxState& r = domain_->rx(rank_);
  r.drain();
  MatchTable::Entry* e = r.table.find(src, tag, wild_lo, wild_hi);
  if (e == nullptr) return false;
  out = r.table.take(e);
  return true;
}

// -- Transport ----------------------------------------------------------------

Transport::Transport(int nranks, const TransportOptions& options)
    : nranks_(nranks),
      max_message_bytes_(options.max_message_bytes),
      eager_bytes_(resolve_eager_bytes(options.eager_bytes)) {
  TRIOLET_CHECK(nranks >= 1, "cluster needs at least one rank");
}

Transport::~Transport() = default;

Transport::Domain& Transport::domain_locked(int band_base) {
  auto& dom = domains_[band_base];
  if (!dom) {
    dom = std::make_unique<Domain>(nranks_, max_message_bytes_, eager_bytes_);
  }
  return *dom;
}

Transport::Endpoint& Transport::attach(int rank, int band_base) {
  TRIOLET_CHECK(rank >= 0 && rank < nranks_,
                "attach: rank outside the cluster");
  std::lock_guard<std::mutex> lock(mu_);
  Domain& dom = domain_locked(band_base);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(band_base))
       << 32) |
      static_cast<std::uint32_t>(rank);
  auto& ep = endpoints_[key];
  if (!ep) ep = std::make_unique<Endpoint>(&dom, rank);
  return *ep;
}

std::size_t Transport::purge_tag_range(int lo, int hi) {
  // A band's traffic lives only in its own domain (senders map every tag
  // into the band), so only domains inside [lo, hi) are touched — other
  // domains may have live rank threads, and draining their rings from
  // this thread would break the single-consumer invariant.
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t dropped = 0;
  for (auto& [base, dom] : domains_) {
    if (base >= lo && base < hi) dropped += dom->purge_range(lo, hi);
  }
  return dropped;
}

void Transport::interrupt_all() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [base, dom] : domains_) dom->interrupt_all();
}

void Transport::inject(int dst, Message m) {
  Domain* dom = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Route by the message's tag: the domain whose band contains it, or
    // the identity domain (created on demand for transport-only tests).
    for (auto& [base, d] : domains_) {
      if (base != 0 && m.tag >= base && m.tag < base + kJobBandWidth) {
        dom = d.get();
        break;
      }
    }
    if (dom == nullptr) dom = &domain_locked(0);
  }
  dom->inject(dst, std::move(m));
}

}  // namespace triolet::net
