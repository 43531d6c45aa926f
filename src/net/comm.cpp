#include "net/comm.hpp"

namespace triolet::net {

ClusterState::ClusterState(int nranks_in, std::size_t max_message_bytes)
    : ClusterState(nranks_in, TransportOptions{
                                  .max_message_bytes = max_message_bytes,
                                  .eager_bytes = -1,
                              }) {}

ClusterState::ClusterState(int nranks_in, const TransportOptions& options)
    : nranks(nranks_in), transport(nranks_in, options) {}

void ClusterState::abort_all() {
  aborted.store(true, std::memory_order_release);
  transport.interrupt_all();
}

void ClusterState::interrupt_all() { transport.interrupt_all(); }

void Comm::deliver_segments(int dst, int tag, serial::SegmentedBytes sg,
                            int collective, std::size_t shard) {
  const auto zero_copy = static_cast<std::int64_t>(sg.bytes_borrowed());
  const auto total = static_cast<std::int64_t>(sg.size());
  // Send accounting goes to the caller's shard (rank thread or engine
  // thread), so concurrent producers never contend on a lock. The stamp is
  // the checksum accumulated at *write* time, not a hash of the gathered
  // bytes: a borrowed span that was sliced wrong or mutated between
  // serialization and the transport's gather fails validation at the
  // receiver instead of checksumming itself consistently.
  SendShard& s = send_shards_[shard];
  s.messages_sent.fetch_add(1, std::memory_order_relaxed);
  s.bytes_sent.fetch_add(total, std::memory_order_relaxed);
  s.bytes_zero_copy.fetch_add(zero_copy, std::memory_order_relaxed);
  s.bytes_copied.fetch_add(total - zero_copy, std::memory_order_relaxed);
  if (collective >= 0) {
    // Collectives run on the rank thread only, so the per-collective
    // counters stay plain fields in stats_.
    auto& c = stats_.collectives[static_cast<std::size_t>(collective)];
    c.messages_sent += 1;
    c.bytes_sent += total;
  }
  // The single send-side mapping point for all sends (blocking
  // send/send_segments and every isend flavor routes through here — the
  // tag map is immutable state, safe from both threads).
  endpoint_->deliver(dst, tags_.map(tag), std::move(sg), s.msg);
}

void Comm::send_segments(int dst, int tag, serial::SegmentedBytes sg) {
  check_dst(dst);
  // Flush queued isends first so a blocking send can never overtake them
  // (per-(src, tag) FIFO order is part of the transport contract).
  flush_async();
  deliver_segments(dst, tag, std::move(sg), active_collective_);
}

void Comm::send_bytes(int dst, int tag, std::vector<std::byte> payload) {
  check_dst(dst);
  flush_async();
  const std::uint64_t sum = serial::checksum(payload);
  deliver_segments(dst, tag,
                   serial::SegmentedBytes::from_flat(std::move(payload), sum),
                   active_collective_);
}

PendingSend Comm::isend_bytes(int dst, int tag, std::vector<std::byte> payload) {
  check_dst(dst);
  auto buf = std::make_shared<std::vector<std::byte>>(std::move(payload));
  return PendingSend(engine().post([this, dst, tag, buf] {
    const std::uint64_t sum = serial::checksum(*buf);
    deliver_segments(dst, tag,
                     serial::SegmentedBytes::from_flat(std::move(*buf), sum),
                     /*collective=*/-1, kEngineShard);
  }));
}

void Comm::finish_recv(const Message& m, bool attribute_collective) {
  TRIOLET_CHECK(serial::checksum(m.payload) == m.checksum,
                "message payload failed checksum validation");
  // Receive-side counters are rank-thread-only: every pop happens on the
  // owning rank thread, so no synchronization is needed here.
  stats_.messages_received += 1;
  stats_.bytes_received += static_cast<std::int64_t>(m.payload.size());
  if (attribute_collective && active_collective_ >= 0) {
    auto& c = stats_.collectives[static_cast<std::size_t>(active_collective_)];
    c.messages_received += 1;
    c.bytes_received += static_cast<std::int64_t>(m.payload.size());
  }
}

void Comm::dispatch_service(std::size_t idx, Message& m) {
  // Service traffic is housekeeping, not part of the enclosing collective:
  // suspend attribution so a fetch served inside reduce() does not skew the
  // per-collective counters.
  const int saved = active_collective_;
  active_collective_ = -1;
  services_[idx].second(m);
  active_collective_ = saved;
}

void Comm::set_service(int tag, std::function<void(Message&)> handler) {
  const int mapped = tags_.map(tag);
  for (const auto& s : services_) {
    TRIOLET_CHECK(s.first != mapped, "service already registered for this tag");
  }
  services_.emplace_back(mapped, std::move(handler));
}

void Comm::clear_service(int tag) {
  const int mapped = tags_.map(tag);
  std::erase_if(services_, [&](const auto& s) { return s.first == mapped; });
}

bool Comm::has_service(int tag) const {
  const int mapped = tags_.map(tag);
  for (const auto& s : services_) {
    if (s.first == mapped) return true;
  }
  return false;
}

void Comm::poll_services() {
  for (std::size_t i = 0; i < services_.size(); ++i) {
    Message m;
    while (endpoint_->try_pop_match(kAnySource, services_[i].first, m,
                                    tags_.any_lo(), tags_.any_hi())) {
      finish_recv(m, /*attribute_collective=*/false);
      dispatch_service(i, m);
    }
  }
}

Message Comm::pop_with_services(std::span<const std::pair<int, int>> user,
                                std::size_t& which_user) {
  // Service patterns come first: pop_match_any reports the first matching
  // pattern of the *earliest* matching message, so a queued service request
  // is dispatched even when a user pattern is a full wildcard. Service tags
  // are stored mapped; user patterns arrive canonical and map here.
  std::vector<std::pair<int, int>> patterns;
  patterns.reserve(services_.size() + user.size());
  for (const auto& s : services_) patterns.emplace_back(kAnySource, s.first);
  for (const auto& [src, tag] : user) {
    patterns.emplace_back(src, tags_.map_pattern(tag));
  }
  while (true) {
    std::size_t which = 0;
    Message m = endpoint_->pop_match_any(patterns, state_->aborted, which,
                                         tags_.any_lo(), tags_.any_hi(),
                                         job_aborted_);
    if (which < services_.size()) {
      finish_recv(m, /*attribute_collective=*/false);
      dispatch_service(which, m);
      continue;
    }
    finish_recv(m);
    which_user = which - services_.size();
    return m;
  }
}

Message Comm::recv_message(int src, int tag) {
  // Liveness rule: never block waiting for a message while holding
  // undelivered outgoing isends — the peer we are waiting on may itself be
  // waiting for one of them. Flushing also surfaces deferred isend errors
  // at the first blocking receive instead of at body end.
  flush_async();
  if (services_.empty()) {
    Message m = endpoint_->pop_match(src, tags_.map_pattern(tag),
                                     state_->aborted, tags_.any_lo(),
                                     tags_.any_hi(), job_aborted_);
    finish_recv(m);
    return m;
  }
  const std::pair<int, int> pattern{src, tag};
  std::size_t which_user = 0;
  return pop_with_services({&pattern, 1}, which_user);
}

std::optional<Message> Comm::try_recv_message(int src, int tag) {
  Message m;
  if (!endpoint_->try_pop_match(src, tags_.map_pattern(tag), m,
                                tags_.any_lo(), tags_.any_hi())) {
    return std::nullopt;
  }
  finish_recv(m);
  return m;
}

std::size_t wait_any(std::span<PendingRecv> recvs) {
  TRIOLET_CHECK(!recvs.empty(), "wait_any on no receives");
  Comm* comm = nullptr;
  std::vector<std::pair<int, int>> patterns;
  std::vector<std::size_t> index;  // pattern -> position in recvs
  for (std::size_t i = 0; i < recvs.size(); ++i) {
    auto& r = recvs[i];
    TRIOLET_CHECK(r.valid(), "wait_any on an empty PendingRecv");
    if (r.completed()) return i;
    TRIOLET_CHECK(comm == nullptr || comm == r.comm_,
                  "wait_any handles must share one Comm");
    comm = r.comm_;
    patterns.emplace_back(r.src_, r.tag_);
    index.push_back(i);
  }
  std::size_t which = 0;
  comm->flush_async();  // same liveness rule as recv_message
  Message m = comm->pop_with_services(patterns, which);
  auto& r = recvs[index[which]];
  r.msg_ = std::move(m);
  r.completed_ = true;
  return index[which];
}

PendingSend Comm::isend_segments(int dst, int tag, serial::SegmentedBytes sg,
                                 std::shared_ptr<const void> keepalive) {
  check_dst(dst);
  auto holder = std::make_shared<serial::SegmentedBytes>(std::move(sg));
  return PendingSend(engine().post(
      [this, dst, tag, holder, keepalive = std::move(keepalive)] {
        deliver_segments(dst, tag, std::move(*holder), /*collective=*/-1,
                         kEngineShard);
      }));
}

Comm::Group Comm::split(int color) {
  std::vector<int> colors = allgather(color);
  std::vector<int> members;
  int my_group_rank = -1;
  for (int r = 0; r < size(); ++r) {
    if (colors[static_cast<std::size_t>(r)] == color) {
      if (r == rank_) my_group_rank = static_cast<int>(members.size());
      members.push_back(r);
    }
  }
  TRIOLET_CHECK(my_group_rank >= 0, "split: caller missing from its group");
  return Group(this, std::move(members), my_group_rank);
}

void Comm::barrier() {
  // Dissemination barrier: after round r every rank has (transitively)
  // heard from the 2^(r+1) ranks behind it, so ceil(log2 P) rounds release
  // everyone — no rank is a bottleneck.
  CollectiveScope scope(*this, Collective::kBarrier);
  const int p = size();
  int round = 0;
  for (int dist = 1; dist < p; dist <<= 1, ++round) {
    send_bytes((rank_ + dist) % p, kTagBarrier + round, {});
    (void)recv_message((rank_ - dist + p) % p, kTagBarrier + round);
  }
}

void Comm::bcast_bytes(std::vector<std::byte>& bytes, int root, int tag_base) {
  // Binomial tree: the subtree rooted at virtual rank v spans
  // [v, v + lowest_set_bit(v)); parents forward to children at decreasing
  // power-of-two offsets, so every rank sends at most ceil(log2 P) times.
  const int p = size();
  const int vrank = (rank_ - root + p) % p;
  int mask = 1, round = 0;
  if (vrank != 0) {
    for (; mask < p; mask <<= 1, ++round) {
      if (vrank & mask) {
        Message m = recv_message(world_of(vrank - mask, root),
                                 tag_base + round);
        bytes = std::move(m.payload).take_vector();
        break;
      }
    }
  } else {
    for (; mask < p; mask <<= 1) ++round;
  }
  for (mask >>= 1, --round; mask > 0; mask >>= 1, --round) {
    if (vrank + mask < p) {
      send_bytes(world_of(vrank + mask, root), tag_base + round, bytes);
    }
  }
}

}  // namespace triolet::net
