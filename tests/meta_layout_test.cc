// Exhaustive and property tests for the segment-tree layout math — the
// correctness core of the paper's metadata scheme (section 4).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/math_util.h"
#include "common/random.h"
#include "meta/layout.h"

namespace blobseer::meta {
namespace {

TEST(LayoutTest, RootSizeMatchesPaperFigure1) {
  // Paper Figure 1: 4-page blob -> root covers (0,4); appending a fifth
  // page expands the root to (0,8). psize = 1 in the figure.
  EXPECT_EQ(RootSizeBytes(4, 1), 4u);
  EXPECT_EQ(RootSizeBytes(5, 1), 8u);
  EXPECT_EQ(RootSizeBytes(0, 1), 1u);
  EXPECT_EQ(RootSizeBytes(1, 64), 64u);
  EXPECT_EQ(RootSizeBytes(65, 64), 128u);
  EXPECT_EQ(RootSizeBytes(64 * 1024 * 3, 64 * 1024), 64u * 1024 * 4);
}

TEST(LayoutTest, NumPages) {
  EXPECT_EQ(NumPages(0, 4), 1u);
  EXPECT_EQ(NumPages(1, 4), 1u);
  EXPECT_EQ(NumPages(4, 4), 1u);
  EXPECT_EQ(NumPages(5, 4), 2u);
}

TEST(LayoutTest, BlockValidity) {
  EXPECT_TRUE(IsValidBlock(Extent{0, 4}, 4));
  EXPECT_TRUE(IsValidBlock(Extent{8, 8}, 4));
  EXPECT_FALSE(IsValidBlock(Extent{4, 8}, 4));   // misaligned
  EXPECT_FALSE(IsValidBlock(Extent{0, 12}, 4));  // not pow2 multiple
  EXPECT_FALSE(IsValidBlock(Extent{0, 2}, 4));   // smaller than a page
}

TEST(LayoutTest, ParentChildNavigation) {
  Extent leaf{12, 4};
  Extent parent = ParentBlock(leaf);
  EXPECT_EQ(parent, (Extent{8, 8}));
  EXPECT_EQ(LeftChildBlock(parent), (Extent{8, 4}));
  EXPECT_EQ(RightChildBlock(parent), (Extent{12, 4}));
  EXPECT_FALSE(IsLeftChild(leaf));
  EXPECT_TRUE(IsLeftChild(Extent{8, 4}));
}

TEST(LayoutTest, NodeSetMatchesPaperFigure1b) {
  // Paper Figure 1(b): overwriting pages 2 and 3 (0-based: offsets 1,2) of
  // a 4-page blob creates nodes (1,1), (2,1), (0,2), (2,2), (0,4).
  auto set = UpdateNodeSet(Extent{1, 2}, 4, 1);
  std::set<Extent> got(set.begin(), set.end());
  std::set<Extent> want{{1, 1}, {2, 1}, {0, 2}, {2, 2}, {0, 4}};
  EXPECT_EQ(got, want);
}

TEST(LayoutTest, NodeSetMatchesPaperFigure1cAppend) {
  // Paper Figure 1(c): appending the 5th page creates leaf (4,1), inner
  // (4,2), (4,4) and the new root (0,8).
  auto set = UpdateNodeSet(Extent{4, 1}, 5, 1);
  std::set<Extent> got(set.begin(), set.end());
  std::set<Extent> want{{4, 1}, {4, 2}, {4, 4}, {0, 8}};
  EXPECT_EQ(got, want);
}

TEST(LayoutTest, BorderBlocksForPaperFigure1b) {
  // The grey tree of Figure 1(b) weaves to white nodes (0,1) and (3,1).
  auto borders = UpdateBorderBlocks(Extent{1, 2}, 4, 1);
  std::set<Extent> got(borders.begin(), borders.end());
  std::set<Extent> want{{0, 1}, {3, 1}};
  EXPECT_EQ(got, want);
}

TEST(LayoutTest, BorderBlocksForPaperFigure1cAppend) {
  // The black tree of Figure 1(c) weaves to the old root (0,4) and the
  // never-written hole (5,1),(6,2).
  auto borders = UpdateBorderBlocks(Extent{4, 1}, 5, 1);
  std::set<Extent> got(borders.begin(), borders.end());
  std::set<Extent> want{{5, 1}, {6, 2}, {0, 4}};
  EXPECT_EQ(got, want);
}

TEST(LayoutTest, TreeDepth) {
  EXPECT_EQ(TreeDepth(1, 1), 1u);
  EXPECT_EQ(TreeDepth(2, 1), 2u);
  EXPECT_EQ(TreeDepth(4, 1), 3u);
  EXPECT_EQ(TreeDepth(5, 1), 4u);
  EXPECT_EQ(TreeDepth(0, 64), 1u);
}

TEST(LayoutTest, EdgePageBlocks) {
  // Aligned updates need no edge resolution.
  EXPECT_TRUE(EdgePageBlocks(Extent{0, 8}, 16, 4).empty());
  EXPECT_TRUE(EdgePageBlocks(Extent{4, 4}, 16, 4).empty());
  // Head partial page + tail partial page.
  auto head = EdgePageBlocks(Extent{6, 5}, 16, 4);
  ASSERT_EQ(head.size(), 2u);  // head page (4,4) and tail page (8,4)
  EXPECT_EQ(head[0], (Extent{4, 4}));
  EXPECT_EQ(head[1], (Extent{8, 4}));
  // Unaligned range with page-aligned end: only the head page.
  auto aligned_end = EdgePageBlocks(Extent{6, 6}, 16, 4);
  ASSERT_EQ(aligned_end.size(), 1u);
  EXPECT_EQ(aligned_end[0], (Extent{4, 4}));
  // Tail beyond old size: no tail resolution needed.
  auto grow = EdgePageBlocks(Extent{6, 5}, 8, 4);
  ASSERT_EQ(grow.size(), 1u);
  EXPECT_EQ(grow[0], (Extent{4, 4}));
  // Small write inside a single page: one edge block, not two.
  auto mid = EdgePageBlocks(Extent{5, 2}, 16, 4);
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_EQ(mid[0], (Extent{4, 4}));
  // Write starting at 0 unaligned end within old size.
  auto tail = EdgePageBlocks(Extent{0, 6}, 16, 4);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0], (Extent{4, 4}));
}

// ---- Exhaustive small-universe properties --------------------------------

// The facts the border walk relies on: BorderBlocks is the border blocks
// followed by the edge pages, all valid and pairwise disjoint; every edge
// page intersects the range and no border block does.
void ExpectBorderBlockFacts(const Extent& range, uint64_t old_size,
                            uint64_t new_size, uint64_t psize) {
  auto borders = UpdateBorderBlocks(range, new_size, psize);
  auto edges = EdgePageBlocks(range, old_size, psize);
  auto all = BorderBlocks(range, old_size, new_size, psize);
  ASSERT_EQ(all.size(), borders.size() + edges.size());
  for (size_t i = 0; i < all.size(); i++) {
    const bool edge = i >= borders.size();
    EXPECT_EQ(all[i], edge ? edges[i - borders.size()] : borders[i]);
    EXPECT_TRUE(IsValidBlock(all[i], psize));
    EXPECT_EQ(all[i].Intersects(range), edge)
        << all[i].ToString() << " range " << range.ToString();
    for (size_t j = i + 1; j < all.size(); j++) {
      EXPECT_FALSE(all[i].Intersects(all[j]))
          << all[i].ToString() << " and " << all[j].ToString();
    }
  }
}

class LayoutPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LayoutPropertyTest, NodeSetIsExactlyIntersectingBlocks) {
  const uint64_t psize = GetParam();
  for (uint64_t total_pages = 1; total_pages <= 24; total_pages++) {
    uint64_t total = total_pages * psize;
    for (uint64_t off = 0; off < total; off += psize) {
      for (uint64_t sz = psize; off + sz <= total; sz += psize) {
        Extent range{off, sz};
        auto set = UpdateNodeSet(range, total, psize);
        std::set<Extent> got(set.begin(), set.end());
        EXPECT_EQ(got.size(), set.size()) << "duplicate blocks";
        uint64_t root = RootSizeBytes(total, psize);
        // Every block in the set intersects the range, fits under the
        // root, and is valid.
        for (const Extent& b : set) {
          EXPECT_TRUE(IsValidBlock(b, psize));
          EXPECT_TRUE(b.Intersects(range));
          EXPECT_LE(b.size, root);
          EXPECT_TRUE(NodeSetContains(b, range, total, psize));
        }
        // Exactly one root block.
        EXPECT_EQ(got.count(Extent{0, root}), 1u);
        // Completeness: every valid intersecting block is present.
        for (uint64_t bs = psize; bs <= root; bs *= 2) {
          for (uint64_t bo = 0; bo < root; bo += bs) {
            Extent b{bo, bs};
            EXPECT_EQ(got.count(b) == 1, b.Intersects(range))
                << b.ToString() << " range " << range.ToString();
          }
        }
      }
    }
  }
}

TEST_P(LayoutPropertyTest, EveryNonRootNodeHasItsParentInTheSet) {
  const uint64_t psize = GetParam();
  for (uint64_t total_pages = 1; total_pages <= 24; total_pages++) {
    uint64_t total = total_pages * psize;
    uint64_t root = RootSizeBytes(total, psize);
    for (uint64_t off = 0; off < total; off += psize) {
      for (uint64_t sz = psize; off + sz <= total; sz += psize) {
        auto set = UpdateNodeSet(Extent{off, sz}, total, psize);
        std::set<Extent> got(set.begin(), set.end());
        for (const Extent& b : set) {
          if (b.size == root) continue;
          EXPECT_TRUE(got.count(ParentBlock(b)))
              << "orphan node " << b.ToString();
        }
      }
    }
  }
}

TEST_P(LayoutPropertyTest, BordersAreDisjointFromRangeAndCoverSiblings) {
  const uint64_t psize = GetParam();
  for (uint64_t total_pages = 1; total_pages <= 24; total_pages++) {
    uint64_t total = total_pages * psize;
    for (uint64_t off = 0; off < total; off += psize) {
      for (uint64_t sz = psize; off + sz <= total; sz += psize) {
        // Trimming a quarter page off each end makes both edges partial
        // pages inside the old blob.
        for (uint64_t trim : {uint64_t{0}, psize / 4}) {
          Extent range{off + trim, sz - 2 * trim};
          auto set = UpdateNodeSet(range, total, psize);
          std::set<Extent> in_set(set.begin(), set.end());
          auto borders = UpdateBorderBlocks(range, total, psize);
          std::set<Extent> border_set(borders.begin(), borders.end());
          for (const Extent& b : borders) {
            EXPECT_FALSE(b.Intersects(range));
            EXPECT_FALSE(in_set.count(b));
          }
          // Every inner node's children are either in the set or borders.
          for (const Extent& b : set) {
            if (IsLeafBlock(b, psize)) continue;
            for (Extent child : {LeftChildBlock(b), RightChildBlock(b)}) {
              EXPECT_TRUE(in_set.count(child) + border_set.count(child) == 1)
                  << "child " << child.ToString() << " of " << b.ToString();
            }
          }
          ExpectBorderBlockFacts(range, total, total, psize);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PageSizes, LayoutPropertyTest,
                         ::testing::Values(1, 4, 64, 4096));

TEST(LayoutRandomTest, UnalignedRangesProduceConsistentSets) {
  Rng rng(2024);
  for (int iter = 0; iter < 2000; iter++) {
    uint64_t psize = uint64_t{1} << rng.Range(0, 12);
    uint64_t total = rng.Range(1, 5000);
    uint64_t off = rng.Range(0, total - 1);
    uint64_t sz = rng.Range(1, total - off);
    Extent range{off, sz};
    auto set = UpdateNodeSet(range, total, psize);
    uint64_t root = RootSizeBytes(total, psize);
    std::set<Extent> got(set.begin(), set.end());
    ASSERT_EQ(got.count(Extent{0, root}), 1u);
    uint64_t leaves = 0;
    for (const Extent& b : set) {
      ASSERT_TRUE(b.Intersects(range));
      ASSERT_TRUE(IsValidBlock(b, psize));
      if (IsLeafBlock(b, psize)) leaves++;
    }
    // Leaf count equals the number of pages the range touches.
    uint64_t first = off / psize;
    uint64_t last = (off + sz - 1) / psize;
    ASSERT_EQ(leaves, last - first + 1);
    // The update starts inside or at the end of the old blob: an append
    // (old size == offset), a write that grows it, or one inside it.
    uint64_t old_size = off + (total - off) * (iter % 3) / 2;
    ExpectBorderBlockFacts(range, old_size, std::max(old_size, range.end()),
                           psize);
  }
}

}  // namespace
}  // namespace blobseer::meta
