#pragma once

// The cache-aware scatter protocol: net-side implementation of the
// serial::Residency{Encoder,Decoder} hooks against the per-rank SliceCache.
//
// Sender (root) side — ResidencyEncodeScope: while a task/grant payload is
// serialized for destination r, each resident slice is looked up in the
// deterministic model of r's cache. A model hit means r already holds the
// exact (id, version, range) bytes, so the codec writes an 8-byte checksum
// token ("resident grant") instead of the payload; a miss records the slice
// in the model and falls back to the existing zero-copy inline path.
//
// Receiver side — ResidencyDecodeScope: an inline slice is stored into this
// rank's cache for future rounds; a token is resolved from the cache after
// checksum validation. Either way the decoded source shares the cache's
// buffer, so a hit costs the checksum pass and nothing else. On a miss or a
// validation failure the receiver repairs itself with a fetch round trip to
// the owner (kTagResidentFetch / kTagResidentData), so a divergent cache
// costs one extra round trip, never a wrong answer. The owner answers
// fetches from inside its own blocking receives via the Comm service hook,
// so a worker blocked on a fetch can never deadlock against a root blocked
// in the enclosing collective.

#include <optional>
#include <span>

#include "net/comm.hpp"
#include "net/slice_cache.hpp"
#include "net/tags.hpp"
#include "serial/residency.hpp"
#include "serial/serialize.hpp"

namespace triolet::net {

/// Wire format of a cache-miss fetch request (kTagResidentFetch).
struct SliceFetchRequest {
  serial::SliceKey key;
};

/// Registers the fetch-answering service on `comm` (idempotent). Any rank
/// that encodes resident slices must install this before its first
/// residency-aware send: receivers may fetch at any later blocking receive.
/// The installed-flag is per Comm (not per Residency): under the service
/// layer many job Comms share one Residency, and each job's root must
/// answer fetches on its own leased tag band.
inline void install_residency_fetch_service(Comm& comm) {
  if (comm.has_service(kTagResidentFetch)) return;
  comm.set_service(kTagResidentFetch, [&comm](Message& m) {
    const auto req = serial::from_bytes<SliceFetchRequest>(m.payload);
    comm.send_bytes(m.src, kTagResidentData,
                    serial::ResidentProviderRegistry::instance().fetch(req.key));
  });
}

/// Installs this scope as the thread's residency encoder for the duration
/// of one serialization aimed at `dst`. When the payload being serialized
/// is a *fused view* (a composite of resident leaves — zip/slice/transform
/// compositions or a segmented source), the sender passes `views` so token
/// substitutions are additionally charged to CommStats::views: those are
/// the intermediate bytes a materializing pipeline would have shipped.
class ResidencyEncodeScope final : public serial::ResidencyEncoder {
 public:
  ResidencyEncodeScope(Comm& comm, int dst, ViewStats* views = nullptr)
      : res_(&comm.residency()),
        dst_(dst),
        stats_(&comm.residency_stats()),
        views_(views) {}

  std::optional<std::uint64_t> try_token(
      const serial::SliceKey& key,
      std::span<const std::byte> payload) override {
    // Model lookup/update under the Residency lock: concurrent jobs share
    // the per-rank Residency under the service layer. Stats stay per-Comm
    // (each Comm belongs to one rank thread), so they need no lock here.
    std::lock_guard<std::mutex> lock(res_->mu);
    SliceCache& model = res_->model_for(dst_);
    if (const auto* e = model.lookup(key); e && e->len == payload.size()) {
      stats_->tokens_sent += 1;
      stats_->bytes_avoided += static_cast<std::int64_t>(payload.size());
      if (views_ != nullptr) {
        views_->view_tokens += 1;
        views_->view_bytes_avoided += static_cast<std::int64_t>(payload.size());
      }
      return e->checksum;
    }
    const std::uint64_t ck = serial::checksum(payload);
    model.insert_meta(key, payload.size(), ck);
    stats_->slices_inlined += 1;
    stats_->bytes_inlined += static_cast<std::int64_t>(payload.size());
    return std::nullopt;
  }

 private:
  Residency* res_;
  int dst_;
  ResidencyStats* stats_;
  ViewStats* views_;
  serial::ScopedResidencyEncoder install_{this};  // last: members ready first
};

/// Installs this scope as the thread's residency decoder. `owner` is the
/// rank fetched from on a miss (the scatter/grant root).
class ResidencyDecodeScope final : public serial::ResidencyDecoder {
 public:
  explicit ResidencyDecodeScope(Comm& comm, int owner = 0)
      : comm_(&comm),
        res_(&comm.residency()),
        stats_(&comm.residency_stats()),
        owner_(owner) {}

  serial::SliceBuffer resolve(const serial::SliceKey& key,
                              std::uint64_t checksum,
                              std::size_t len) override {
    {
      // Cache probe under the Residency lock (shared across jobs under the
      // service layer) — released before the fetch round trip below, so a
      // blocked fetch never holds the rank's other jobs off their cache.
      std::lock_guard<std::mutex> lock(res_->mu);
      if (const auto* e = res_->cache.lookup(key)) {
        if (e->bytes && e->len == len &&
            serial::checksum({e->bytes.get(), len}) == checksum) {
          stats_->cache_hits += 1;
          return e->bytes;
        }
        // Cached but wrong (corruption, or a model-mode entry with no
        // bytes): drop it and repair through the fetch path.
        stats_->checksum_failures += 1;
        res_->cache.erase(key);
      } else {
        stats_->cache_misses += 1;
      }
      stats_->fetches += 1;
    }
    comm_->send(owner_, kTagResidentFetch, SliceFetchRequest{key});
    Message m = comm_->recv_message(owner_, kTagResidentData);
    TRIOLET_CHECK(m.payload.size() == len,
                  "resident fetch returned wrong slice size");
    std::lock_guard<std::mutex> lock(res_->mu);
    return res_->cache.insert(key, m.payload);
  }

  serial::SliceBuffer store(const serial::SliceKey& key,
                            std::span<const std::byte> payload) override {
    std::lock_guard<std::mutex> lock(res_->mu);
    return res_->cache.insert(key, payload);
  }

 private:
  Comm* comm_;
  Residency* res_;
  ResidencyStats* stats_;
  int owner_;
  serial::ScopedResidencyDecoder install_{this};  // last: members ready first
};

}  // namespace triolet::net
