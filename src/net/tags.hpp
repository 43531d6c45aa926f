#pragma once

// Reserved tag-band registry and audit.
//
// Several subsystems reserve tag regions out of the user tag space: the
// demand-driven scheduler (1 << 26), the slice-residency protocol band
// above it, and the collectives (1 << 28 and up). Each band used to be
// declared where it was consumed; this registry lists every band in one
// table so a new reservation that overlaps an existing one fails fast at
// Cluster startup (assert_tag_bands_disjoint) instead of surfacing as
// cross-matched messages under load.

#include <span>
#include <string>

#include "support/macros.hpp"

namespace triolet::net {

/// Half-open tag range [lo, hi) reserved for one subsystem.
struct TagBand {
  const char* name;
  int lo;
  int hi;
};

/// User tags must stay below every reserved band.
inline constexpr int kUserTagLimit = 1 << 26;

// Dedicated tag band for the demand-driven chunk scheduler (src/sched/):
// requests travel root-ward under the epoch's request tag (always received
// with kAnySource) and grants come back under the epoch's grant tag.
//
// The (request, grant) tag pair rotates with a per-Comm *epoch* counter,
// one epoch per collective run_chunks invocation. Without the rotation,
// back-to-back scheduled skeletons deadlock under a round-boundary race: a
// fast worker that finishes round r posts its round r+1 request while the
// root is still draining round r's final requests; the root would answer it
// with a round-r `done`, dismissing the worker from a round that never
// started AND consuming a done slot a slow round-r worker still needs —
// that worker then waits forever for a grant while the root blocks in the
// next collective. Epoch-tagged requests from round r+1 simply wait in the
// root's match table until its round r+1 service loop matches them. Workers
// can run at most one epoch ahead of the root (they cannot finish an epoch
// without its grants), so 32 rotating pairs can never alias.
inline constexpr int kTagSchedBand = 1 << 26;
inline constexpr int kSchedEpochTags = 32;
inline constexpr int kTagSchedBandEnd = kTagSchedBand + 2 * kSchedEpochTags;

/// Request tag for scheduler epoch `e` (worker -> root, kAnySource-served).
inline constexpr int sched_request_tag(int epoch) {
  return kTagSchedBand + 2 * (epoch % kSchedEpochTags);
}

/// Grant tag for scheduler epoch `e` (root -> worker).
inline constexpr int sched_grant_tag(int epoch) {
  return kTagSchedBand + 2 * (epoch % kSchedEpochTags) + 1;
}

// Epoch-0 aliases, kept for tests and tooling that name the band's tags.
inline constexpr int kTagSchedRequest = kTagSchedBand + 0;
inline constexpr int kTagSchedGrant = kTagSchedBand + 1;

// Residency (slice-cache) protocol band: when a receiver's cached slice
// misses or fails checksum validation, it sends a fetch request root-ward
// under kTagResidentFetch (served with kAnySource, like sched requests) and
// the authoritative slice bytes come back under kTagResidentData.
inline constexpr int kTagResidencyBand = (1 << 26) + (1 << 17);
inline constexpr int kTagResidentFetch = kTagResidencyBand + 0;
inline constexpr int kTagResidentData = kTagResidencyBand + 1;
inline constexpr int kTagResidencyBandEnd = kTagResidencyBand + 64;

/// Collective rounds start here: one 64-tag band per collective kind, one
/// tag per tree round within the band.
inline constexpr int kFirstReservedTag = 1 << 28;
inline constexpr int kCollectiveBandsEnd = kFirstReservedTag + (7 << 6);

/// Every reserved band, plus the user space, in one table.
inline std::span<const TagBand> reserved_tag_bands() {
  static constexpr TagBand kBands[] = {
      {"user", 0, kUserTagLimit},
      {"sched", kTagSchedBand, kTagSchedBandEnd},
      {"residency", kTagResidencyBand, kTagResidencyBandEnd},
      {"collectives", kFirstReservedTag, kCollectiveBandsEnd},
  };
  return kBands;
}

/// True when no two bands in `bands` overlap; on failure, `why` (if
/// non-null) names the offending pair.
inline bool tag_bands_disjoint(std::span<const TagBand> bands,
                               std::string* why = nullptr) {
  for (std::size_t i = 0; i < bands.size(); ++i) {
    if (bands[i].lo >= bands[i].hi) {
      if (why) *why = std::string("band '") + bands[i].name + "' is empty or inverted";
      return false;
    }
    for (std::size_t j = i + 1; j < bands.size(); ++j) {
      if (bands[i].lo < bands[j].hi && bands[j].lo < bands[i].hi) {
        if (why) {
          *why = std::string("tag bands overlap: '") + bands[i].name +
                 "' and '" + bands[j].name + "'";
        }
        return false;
      }
    }
  }
  return true;
}

/// Fails fast if any two reserved bands overlap. Called from Cluster and
/// JobManager startup so a bad band constant can never ship a single
/// message.
inline void assert_tag_bands_disjoint() {
  std::string why;
  TRIOLET_CHECK(tag_bands_disjoint(reserved_tag_bands(), &why), why.c_str());
}

}  // namespace triolet::net
