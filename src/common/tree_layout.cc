#include "common/tree_layout.h"

#include "common/logging.h"
#include "common/math_util.h"

namespace blobseer {

uint64_t NumPages(uint64_t size, uint64_t psize) {
  return size == 0 ? 1 : CeilDiv(size, psize);
}

uint64_t RootSizeBytes(uint64_t size, uint64_t psize) {
  return Pow2Ceil(NumPages(size, psize)) * psize;
}

bool IsValidBlock(const Extent& b, uint64_t psize) {
  if (b.size < psize) return false;
  if (b.size % psize != 0) return false;
  if (!IsPow2(b.size / psize)) return false;
  return b.offset % b.size == 0;
}

bool IsLeafBlock(const Extent& b, uint64_t psize) { return b.size == psize; }

Extent ParentBlock(const Extent& b) {
  uint64_t psz = b.size * 2;
  return Extent{AlignDown(b.offset, psz), psz};
}

Extent LeftChildBlock(const Extent& b) { return Extent{b.offset, b.size / 2}; }

Extent RightChildBlock(const Extent& b) {
  return Extent{b.offset + b.size / 2, b.size / 2};
}

bool IsLeftChild(const Extent& b) { return b.offset % (2 * b.size) == 0; }

std::vector<Extent> UpdateNodeSet(const Extent& range, uint64_t total_after,
                                  uint64_t psize) {
  BS_CHECK(range.size > 0) << "empty update range";
  BS_CHECK(range.end() <= total_after)
      << "range " << range.ToString() << " beyond total " << total_after;
  uint64_t root_size = RootSizeBytes(total_after, psize);
  std::vector<Extent> out;
  for (uint64_t bs = psize;; bs *= 2) {
    uint64_t first = AlignDown(range.offset, bs);
    uint64_t last = AlignDown(range.end() - 1, bs);
    for (uint64_t off = first; off <= last; off += bs) {
      out.push_back(Extent{off, bs});
    }
    if (bs >= root_size) break;
  }
  return out;
}

bool NodeSetContains(const Extent& block, const Extent& range,
                     uint64_t total_after, uint64_t psize) {
  if (!IsValidBlock(block, psize)) return false;
  if (block.size > RootSizeBytes(total_after, psize)) return false;
  return block.Intersects(range);
}

std::vector<Extent> UpdateBorderBlocks(const Extent& range,
                                       uint64_t total_after, uint64_t psize) {
  std::vector<Extent> out;
  for (const Extent& b : UpdateNodeSet(range, total_after, psize)) {
    if (IsLeafBlock(b, psize)) continue;
    for (const Extent& child : {LeftChildBlock(b), RightChildBlock(b)}) {
      if (!child.Intersects(range)) out.push_back(child);
    }
  }
  return out;
}

std::vector<Extent> EdgePageBlocks(const Extent& range, uint64_t old_size,
                                   uint64_t psize) {
  std::vector<Extent> out;
  if (range.offset % psize != 0 && range.offset > 0) {
    out.push_back(Extent{AlignDown(range.offset, psize), psize});
  }
  if (range.end() % psize != 0 && range.end() < old_size) {
    Extent tail{AlignDown(range.end(), psize), psize};
    if (out.empty() || out[0] != tail) out.push_back(tail);
  }
  return out;
}

std::vector<Extent> BorderBlocks(const Extent& range, uint64_t old_size,
                                 uint64_t new_size, uint64_t psize) {
  std::vector<Extent> out = UpdateBorderBlocks(range, new_size, psize);
  for (const Extent& e : EdgePageBlocks(range, old_size, psize))
    out.push_back(e);
  return out;
}

uint32_t TreeDepth(uint64_t size, uint64_t psize) {
  return FloorLog2(RootSizeBytes(size, psize) / psize) + 1;
}

}  // namespace blobseer
