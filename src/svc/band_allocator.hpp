#pragma once

// Dynamic per-job tag-band allocator: the service layer's generalization of
// the static reserved-band table in net/tags.hpp.
//
// Each concurrent job group leases one kJobBandWidth-wide band out of the
// job-band region; a net::TagMap built from the lease folds the job's whole
// canonical tag space into it (user tags, scheduler epochs, residency
// protocol, collectives), so two jobs' traffic can never cross-match no
// matter what they run. Leases are validated at
// allocation time with the same pairwise-disjointness audit the static
// table gets at Cluster startup — defense in depth against an allocator
// bug — and reclaimed slots are reused lowest-first. Exhaustion is a clear
// error (BandsExhausted), never a hang: the JobManager sizes its admission
// limit below capacity so running jobs cannot hit it, and try_lease lets
// callers degrade gracefully.

#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/tags.hpp"

namespace triolet::svc {

/// Thrown when every leasable job band is in use (lease() only; try_lease
/// returns false instead). Carries the capacity so the message is
/// actionable.
class BandsExhausted : public std::runtime_error {
 public:
  explicit BandsExhausted(int capacity)
      : std::runtime_error(
            "job tag bands exhausted: all " + std::to_string(capacity) +
            " leases are held; lower concurrency or reclaim finished jobs") {}
};

/// Thread-safe lease/reclaim of job tag bands.
class BandAllocator {
 public:
  /// `capacity` caps how many bands this allocator hands out; defaults to
  /// everything the region holds. Tests shrink it to force exhaustion.
  explicit BandAllocator(int capacity = net::kMaxJobBands);

  /// Leases the lowest free band; throws BandsExhausted when none is free.
  net::TagMap lease();

  /// Non-throwing variant: returns false (and leaves `out` untouched) when
  /// no band is free.
  bool try_lease(net::TagMap& out);

  /// Returns a lease to the pool. The caller must have purged the band's
  /// queued messages first (Transport::purge_tag_range) — the allocator
  /// checks only that the lease is one of its own and currently held.
  void reclaim(const net::TagMap& band);

  int capacity() const;
  int leased() const;

  /// Audit of one candidate lease against the static reserved bands and
  /// every active lease (the dynamic extension of
  /// net::assert_tag_bands_disjoint). Exposed for tests; lease() calls it
  /// on every allocation and treats failure as a fatal invariant breach.
  bool candidate_disjoint(int slot, std::string* why = nullptr) const;

 private:
  bool candidate_disjoint_locked(int slot, std::string* why) const;

  mutable std::mutex mu_;
  std::vector<bool> used_;
  int leased_ = 0;
};

}  // namespace triolet::svc
