#include "net/comm.hpp"

namespace triolet::net {

ClusterState::ClusterState(int nranks_in, const TransportOptions& options)
    : nranks(nranks_in), transport(nranks_in, options) {}

void ClusterState::abort_all() {
  aborted.store(true, std::memory_order_release);
  transport.interrupt_all();
}

void Comm::deliver_segments(int dst, int tag, serial::SegmentedBytes sg) {
  // Every send routes through here. Negative tags are receive wildcards
  // (kAnyTag): a message carrying one would match any kAnyTag receive.
  TRIOLET_CHECK(tag >= 0, "send tags must be non-negative");
  const auto zero_copy = static_cast<std::int64_t>(sg.bytes_borrowed());
  const auto total = static_cast<std::int64_t>(sg.size());
  // Counted only once the transport accepts it: a send that throws (say,
  // BufferOverflow) was never sent.
  endpoint_.deliver(dst, tag, std::move(sg), stats_.msg);
  stats_.messages_sent += 1;
  stats_.bytes_sent += total;
  stats_.bytes_zero_copy += zero_copy;
  stats_.bytes_copied += total - zero_copy;
  if (active_collective_ >= 0) {
    auto& c = stats_.collectives[static_cast<std::size_t>(active_collective_)];
    c.messages_sent += 1;
    c.bytes_sent += total;
  }
}

void Comm::send_segments(int dst, int tag, serial::SegmentedBytes sg) {
  check_dst(dst);
  deliver_segments(dst, tag, std::move(sg));
}

void Comm::send_bytes(int dst, int tag, std::vector<std::byte> payload) {
  check_dst(dst);
  const std::uint64_t sum = serial::checksum(payload);
  deliver_segments(dst, tag,
                   serial::SegmentedBytes::from_flat(std::move(payload), sum));
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
  TRIOLET_CHECK(!has_service(tag), "service already registered for this tag");
  services_.emplace_back(tag, std::move(handler));
}

void Comm::clear_service(int tag) {
  std::erase_if(services_, [&](const auto& s) { return s.first == tag; });
}

bool Comm::has_service(int tag) const {
  for (const auto& s : services_) {
    if (s.first == tag) return true;
  }
  return false;
}

void Comm::poll_services() {
  for (std::size_t i = 0; i < services_.size(); ++i) {
    Message m;
    while (endpoint_.try_pop_match(kAnySource, services_[i].first, m)) {
      finish_recv(m, /*attribute_collective=*/false);
      dispatch_service(i, m);
    }
  }
}

Message Comm::pop_with_services(std::span<const std::pair<int, int>> user,
                                std::size_t& which_user) {
  // Service patterns come first: pop_match_any reports the first matching
  // pattern of the *earliest* matching message, so a queued service request
  // is dispatched even when a user pattern is a full wildcard.
  std::vector<std::pair<int, int>> patterns;
  patterns.reserve(services_.size() + user.size());
  for (const auto& s : services_) patterns.emplace_back(kAnySource, s.first);
  patterns.insert(patterns.end(), user.begin(), user.end());
  while (true) {
    std::size_t which = 0;
    Message m = endpoint_.pop_match_any(patterns, state_->aborted, which);
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
  if (services_.empty()) {
    Message m = endpoint_.pop_match(src, tag, state_->aborted);
    finish_recv(m);
    return m;
  }
  const std::pair<int, int> pattern{src, tag};
  std::size_t which_user = 0;
  return pop_with_services({&pattern, 1}, which_user);
}

std::optional<Message> Comm::try_recv_message(int src, int tag) {
  Message m;
  if (!endpoint_.try_pop_match(src, tag, m)) {
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
  Message m = comm->pop_with_services(patterns, which);
  auto& r = recvs[index[which]];
  r.msg_ = std::move(m);
  r.completed_ = true;
  return index[which];
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
