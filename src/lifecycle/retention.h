// Version retention policies (ROADMAP item 2: version lifecycle).
//
// A policy is stored per blob by the version manager and evaluated by the
// GC sweeper: `keep_last_k` bounds the number of published snapshots kept,
// `keep_younger_than_us` keeps every snapshot younger than an age. A
// version survives when *either* rule protects it; with both fields 0 the
// policy is disabled and nothing ever expires (the pre-lifecycle default).
// Expiry never touches versions the manager reports as pinned: the latest
// published snapshot, branch points of child blobs, and the published
// frontier in-flight updates border-link against (see docs/lifecycle.md).
//
// Header-only so the version manager can evaluate policies without linking
// the lifecycle library (mirroring how locator uses provider/messages.h).
#ifndef BLOBSEER_LIFECYCLE_RETENTION_H_
#define BLOBSEER_LIFECYCLE_RETENTION_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/serde.h"
#include "common/types.h"

namespace blobseer::lifecycle {

struct RetentionPolicy {
  /// Keep the newest k published snapshots (0 = unlimited by count).
  uint32_t keep_last_k = 0;
  /// Keep every snapshot assigned less than this long ago (0 = no age rule).
  uint64_t keep_younger_than_us = 0;

  friend bool operator==(const RetentionPolicy&,
                         const RetentionPolicy&) = default;

  /// A disabled policy retains everything.
  bool enabled() const { return keep_last_k != 0 || keep_younger_than_us != 0; }

  BS_FIELDS(RetentionPolicy, keep_last_k, keep_younger_than_us)
};

/// Everything the evaluator needs to know about one version. The version
/// manager's ListVersions reports exactly this shape (vmanager::VersionInfo
/// extends it with the snapshot size).
struct VersionFacts {
  Version version = kNoVersion;
  uint64_t assigned_at_us = 0;
  bool published = false;
  bool discarded = false;
  /// Latest published snapshot, a child blob's branch point, or the
  /// published frontier some in-flight update border-links against —
  /// never expirable regardless of policy.
  bool pinned = false;
};

/// Versions the policy says to discard, oldest first. Only published,
/// not-yet-discarded, unpinned versions are candidates; `keep_last_k`
/// ranks over all published non-discarded versions (pinned ones included,
/// so "keep the newest 4" means the 4 newest readable snapshots).
inline std::vector<Version> ExpiredVersions(const RetentionPolicy& policy,
                                            std::vector<VersionFacts> facts,
                                            uint64_t now_us) {
  std::vector<Version> expired;
  if (!policy.enabled()) return expired;
  std::sort(facts.begin(), facts.end(),
            [](const VersionFacts& a, const VersionFacts& b) {
              return a.version > b.version;  // newest first
            });
  uint32_t rank = 0;  // 1-based rank among published non-discarded versions
  for (const VersionFacts& f : facts) {
    if (!f.published || f.discarded) continue;
    rank++;
    if (f.pinned) continue;
    if (policy.keep_last_k != 0 && rank <= policy.keep_last_k) continue;
    if (policy.keep_younger_than_us != 0 &&
        now_us - f.assigned_at_us < policy.keep_younger_than_us) {
      continue;
    }
    expired.push_back(f.version);
  }
  std::reverse(expired.begin(), expired.end());  // oldest first
  return expired;
}

}  // namespace blobseer::lifecycle

#endif  // BLOBSEER_LIFECYCLE_RETENTION_H_
