// Pure segment-tree layout arithmetic (paper section 4.1).
//
// Metadata for snapshot version v of a blob is a binary segment tree over
// byte ranges ("blocks"). A block is an extent whose size is psize * 2^k and
// whose offset is a multiple of its size. Leaves have size psize (one page);
// the root of version v covers [0, RootSizeBytes(size_v, psize)).
//
// The node set an update creates is a *pure function* of its range and the
// blob size after the update. Both the writer and the version manager
// evaluate it independently: that is what allows the version manager to hand
// out partial border sets for not-yet-published concurrent updates without
// reading the DHT (paper section 4.2). Because the version manager needs
// exactly this math and nothing else from the metadata layer, it lives in
// common/ — layer-2 services must not depend on each other.
#ifndef BLOBSEER_COMMON_TREE_LAYOUT_H_
#define BLOBSEER_COMMON_TREE_LAYOUT_H_

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace blobseer {

/// Number of pages needed to hold `size` bytes (>= 1 page once non-empty).
uint64_t NumPages(uint64_t size, uint64_t psize);

/// Size in bytes covered by the root of a tree for a blob of `size` bytes:
/// pow2ceil(ceil(size / psize)) * psize. A zero-size blob still maps to one
/// page so a root block is always well-defined.
uint64_t RootSizeBytes(uint64_t size, uint64_t psize);

/// True iff `b` is a well-formed tree block for the given page size.
bool IsValidBlock(const Extent& b, uint64_t psize);

bool IsLeafBlock(const Extent& b, uint64_t psize);

/// Parent/child navigation. Precondition: valid blocks; children only exist
/// for non-leaf blocks.
Extent ParentBlock(const Extent& b);
Extent LeftChildBlock(const Extent& b);
Extent RightChildBlock(const Extent& b);

/// True iff `b` is the left child of its parent (offset divisible by 2*size).
bool IsLeftChild(const Extent& b);

/// The set of tree blocks an update with byte range `range` creates when the
/// blob size after the update is `total_after`. Ordered bottom-up: all
/// leaves left-to-right, then each upper level, ending with the root block.
/// This includes expansion roots when the tree grows (paper Figure 1(c)).
std::vector<Extent> UpdateNodeSet(const Extent& range, uint64_t total_after,
                                  uint64_t psize);

/// Membership test equivalent to `UpdateNodeSet(...) contains block`, in
/// O(1): block intersects the range and fits under the root.
bool NodeSetContains(const Extent& block, const Extent& range,
                     uint64_t total_after, uint64_t psize);

/// Blocks that are children of the update's new inner nodes but do not
/// intersect the update range: the "border nodes" of paper section 4.2,
/// whose version labels must be resolved from previous snapshots.
std::vector<Extent> UpdateBorderBlocks(const Extent& range,
                                       uint64_t total_after, uint64_t psize);

/// Leaf blocks at the edges of an unaligned update whose previous leaf
/// version is needed to preserve the bytes the update does not cover:
/// the head page when `range.offset` is not page-aligned, and the tail page
/// when `range.end()` is neither page-aligned nor at/after `old_size`.
/// Returns zero, one, or two distinct leaf blocks.
std::vector<Extent> EdgePageBlocks(const Extent& range, uint64_t old_size,
                                   uint64_t psize);

/// Every block whose version label an update must take from an earlier
/// snapshot: UpdateBorderBlocks(range, new_size) followed by
/// EdgePageBlocks(range, old_size). The blocks are pairwise disjoint; the
/// edge blocks intersect the range and the border blocks do not.
std::vector<Extent> BorderBlocks(const Extent& range, uint64_t old_size,
                                 uint64_t new_size, uint64_t psize);

/// Tree depth (number of levels) for a blob of `size` bytes: 1 for a single
/// page, log2(root pages) + 1 otherwise.
uint32_t TreeDepth(uint64_t size, uint64_t psize);

}  // namespace blobseer

#endif  // BLOBSEER_COMMON_TREE_LAYOUT_H_
