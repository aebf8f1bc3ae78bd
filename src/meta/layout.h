// Segment-tree layout arithmetic, re-exported under the metadata layer's
// namespace. The implementation lives in common/tree_layout.h so that the
// version manager (which evaluates the same pure math when computing border
// sets) does not need to link the metadata layer.
#ifndef BLOBSEER_META_LAYOUT_H_
#define BLOBSEER_META_LAYOUT_H_

#include "common/tree_layout.h"

namespace blobseer::meta {

using blobseer::BorderBlocks;
using blobseer::EdgePageBlocks;
using blobseer::IsLeafBlock;
using blobseer::IsLeftChild;
using blobseer::IsValidBlock;
using blobseer::LeftChildBlock;
using blobseer::NodeSetContains;
using blobseer::NumPages;
using blobseer::ParentBlock;
using blobseer::RightChildBlock;
using blobseer::RootSizeBytes;
using blobseer::TreeDepth;
using blobseer::UpdateBorderBlocks;
using blobseer::UpdateNodeSet;

}  // namespace blobseer::meta

#endif  // BLOBSEER_META_LAYOUT_H_
