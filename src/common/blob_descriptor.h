// Blob identity and branch ancestry, shared by the version manager, the
// metadata client and the blob client.
#ifndef BLOBSEER_COMMON_BLOB_DESCRIPTOR_H_
#define BLOBSEER_COMMON_BLOB_DESCRIPTOR_H_

#include <string>
#include <vector>

#include "common/serde.h"
#include "common/types.h"

namespace blobseer {

/// Versions are shared along branch ancestry: a branch created at version v
/// owns versions > v, its parent owns the versions up to v (recursively).
/// Segment i of an ancestry owns versions (segments[i-1].up_to,
/// segments[i].up_to]; the final segment is the blob itself with
/// up_to = kMaxVersion.
inline constexpr Version kMaxVersion = kNoVersion;

struct AncestrySegment {
  BlobId origin = kInvalidBlobId;
  Version up_to = kMaxVersion;

  friend bool operator==(const AncestrySegment&,
                         const AncestrySegment&) = default;

  BS_FIELDS(AncestrySegment, origin, up_to)
};

/// Maps a version number to the blob that owns (created) it. Metadata node
/// keys use the owning blob, so branches transparently share all metadata
/// and data written before the branch point (paper: "cheap branching").
class BranchAncestry {
 public:
  BranchAncestry() = default;
  explicit BranchAncestry(std::vector<AncestrySegment> segments)
      : segments_(std::move(segments)) {}

  /// The blob owning version `v`. Falls back to the last segment (the blob
  /// itself) for any v beyond recorded bounds.
  BlobId Resolve(Version v) const {
    for (const auto& s : segments_) {
      if (v <= s.up_to) return s.origin;
    }
    return segments_.empty() ? kInvalidBlobId : segments_.back().origin;
  }

  const std::vector<AncestrySegment>& segments() const { return segments_; }
  bool empty() const { return segments_.empty(); }

 private:
  std::vector<AncestrySegment> segments_;
};

/// GET_RECENT outcome: a recently published version together with its
/// snapshot size (the paper's primitive returns both).
struct RecentVersion {
  Version version = 0;
  uint64_t size = 0;
};

/// Everything a client needs to operate on a blob.
struct BlobDescriptor {
  BlobId id = kInvalidBlobId;
  uint64_t psize = 0;
  std::vector<AncestrySegment> ancestry;

  BranchAncestry Ancestry() const { return BranchAncestry(ancestry); }

  BS_FIELDS(BlobDescriptor, id, psize, ancestry)
};

}  // namespace blobseer

#endif  // BLOBSEER_COMMON_BLOB_DESCRIPTOR_H_
