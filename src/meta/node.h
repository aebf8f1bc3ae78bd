// Metadata tree node representation and its DHT encoding.
#ifndef BLOBSEER_META_NODE_H_
#define BLOBSEER_META_NODE_H_

#include <string>
#include <vector>

#include "common/hash.h"
#include "common/serde.h"
#include "common/types.h"

namespace blobseer::meta {

/// Chain length marker meaning "previous leaf was unpublished at write time,
/// length unknown" (see DESIGN.md section 3.2).
inline constexpr uint32_t kUnknownChainLen = 0;

/// Identifies one tree node: a node is immutable once written, keyed by the
/// blob that *created* it (branches resolve versions to origin blobs), the
/// snapshot version that created it and the block it covers.
struct NodeKey {
  BlobId origin = kInvalidBlobId;
  Version version = kNoVersion;
  Extent block;

  friend bool operator==(const NodeKey&, const NodeKey&) = default;
  friend auto operator<=>(const NodeKey&, const NodeKey&) = default;

  /// Serialized form used as the DHT key.
  std::string ToDhtKey() const;
  std::string ToString() const;
};

/// One stored fragment of a logical page: `len` bytes that live at
/// `data_off` within page object `pid` and land at `page_off` within the
/// logical page. Aligned writes produce exactly one full-page fragment.
/// Format v3 stores only the stable PageId; readers resolve the current
/// replica set through the location index (locator::LocationIndex), so the
/// failure detector can move replicas without rewriting metadata.
struct PageFragment {
  PageId pid;
  uint32_t page_off = 0;
  uint32_t len = 0;
  uint32_t data_off = 0;

  friend bool operator==(const PageFragment&, const PageFragment&) = default;

  BS_FIELDS(PageFragment, pid, page_off, len, data_off)
};

/// Wire-format version marker, the first byte of every encoded MetaNode.
/// Format v3 fragments carry only the stable PageId; the location index
/// maps it to the current replica set. Nodes live in the in-memory DHT, so
/// no node of an older format (v1: no marker, v2: embedded replica sets)
/// can outlive the process that wrote it: decoding rejects every other
/// marker as Corruption.
inline constexpr uint8_t kNodeFormatV3 = 3;

/// A tree node. Inner nodes carry the version labels of their two children
/// (kNoVersion marks a never-written hole). Leaves carry the fragments this
/// update wrote into the page plus a link to the previous leaf version for
/// the bytes it did not cover (unaligned updates).
struct MetaNode {
  enum class Type : uint8_t { kInner = 0, kLeaf = 1 };

  Type type = Type::kInner;
  // Inner node fields.
  Version left_version = kNoVersion;
  Version right_version = kNoVersion;
  // Leaf fields.
  Version prev_version = kNoVersion;
  uint32_t chain_len = 1;
  std::vector<PageFragment> fragments;

  bool is_leaf() const { return type == Type::kLeaf; }

  static MetaNode Inner(Version left, Version right) {
    MetaNode n;
    n.type = Type::kInner;
    n.left_version = left;
    n.right_version = right;
    return n;
  }
  static MetaNode Leaf(std::vector<PageFragment> fragments, Version prev,
                       uint32_t chain_len) {
    MetaNode n;
    n.type = Type::kLeaf;
    n.fragments = std::move(fragments);
    n.prev_version = prev;
    n.chain_len = chain_len;
    return n;
  }

  void EncodeTo(BinaryWriter* w) const;
  Status DecodeFrom(BinaryReader* r);

  std::string ToString() const;
};

}  // namespace blobseer::meta

namespace std {
template <>
struct hash<blobseer::meta::NodeKey> {
  size_t operator()(const blobseer::meta::NodeKey& k) const noexcept {
    return static_cast<size_t>(
        blobseer::HashCombine(blobseer::HashCombine(k.origin, k.version),
                              blobseer::HashCombine(k.block.offset,
                                                    k.block.size)));
  }
};
}  // namespace std

#endif  // BLOBSEER_META_NODE_H_
