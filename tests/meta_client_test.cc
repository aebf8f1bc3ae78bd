// MetaClient unit tests: node round trips, the immutable-node cache,
// tree walks over hand-built trees, border resolution edge cases, and the
// fetch count of one border walk. Every call goes through the async methods
// BlobClient runs, waited on from the test thread.
#include <gtest/gtest.h>

#include "dht/client.h"
#include "dht/service.h"
#include "meta/layout.h"
#include "meta/meta_client.h"
#include "rpc/inproc.h"

namespace blobseer::meta {
namespace {

class MetaClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; i++) {
      auto svc = std::make_shared<dht::DhtService>();
      std::string addr = "inproc://meta-" + std::to_string(i);
      ASSERT_TRUE(net_.Serve(addr, svc).ok());
      addresses_.push_back(addr);
    }
    dht_ = std::make_unique<dht::DhtClient>(&net_, addresses_);
  }

  MetaClient NewClient(bool cache = true, size_t capacity = 1024) {
    MetaClientOptions opts;
    opts.cache_enabled = cache;
    opts.cache_capacity = capacity;
    return MetaClient(dht_.get(), opts);
  }

  // Stores one node the way writers do (a multi-put wave), then seeds the
  // writer's cache with it.
  Status Put(MetaClient* mc, const NodeKey& key, const MetaNode& node) {
    BS_RETURN_NOT_OK(
        dht_->MultiPutAsync({MetaClient::NodePut(key, node)}).Wait().status());
    mc->CacheNodes({{key, node}});
    return Status::OK();
  }

  // Resolves one border block; every tree here has psize 1.
  static Result<Version> Resolve(MetaClient* mc, const BranchAncestry& anc,
                                 Version published, uint64_t size,
                                 const Extent& block) {
    auto labels =
        mc->ResolveBordersAsync(anc, published, size, /*psize=*/1, {block})
            .Wait();
    if (!labels.ok()) return labels.status();
    EXPECT_EQ(labels->size(), 1u);
    return labels->at(0);
  }

  // Writes the 4-page tree of paper Figure 1(a): version 1, psize 1.
  void WriteFigure1aTree(MetaClient* mc) {
    ASSERT_TRUE(Put(mc, NodeKey{1, 1, {0, 4}}, MetaNode::Inner(1, 1)).ok());
    ASSERT_TRUE(Put(mc, NodeKey{1, 1, {0, 2}}, MetaNode::Inner(1, 1)).ok());
    ASSERT_TRUE(Put(mc, NodeKey{1, 1, {2, 2}}, MetaNode::Inner(1, 1)).ok());
    for (uint64_t p = 0; p < 4; p++) {
      ASSERT_TRUE(
          Put(mc, NodeKey{1, 1, {p, 1}},
              MetaNode::Leaf({PageFragment{PageId{1, p + 1}, 0, 1, 0}},
                             kNoVersion, 1))
              .ok());
    }
  }

  rpc::InProcNetwork net_;
  std::vector<std::string> addresses_;
  std::unique_ptr<dht::DhtClient> dht_;
};

TEST_F(MetaClientTest, PutGetRoundTrip) {
  MetaClient mc = NewClient();
  NodeKey key{7, 3, Extent{64, 64}};
  MetaNode node = MetaNode::Inner(2, kNoVersion);
  ASSERT_TRUE(Put(&mc, key, node).ok());
  auto got = mc.GetNodeAsync(key).Wait();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->left_version, 2u);
  EXPECT_EQ(got->right_version, kNoVersion);
  EXPECT_TRUE(mc.GetNodeAsync(NodeKey{7, 4, Extent{64, 64}})
                  .Wait()
                  .status()
                  .IsNotFound());
}

TEST_F(MetaClientTest, CacheServesRepeatReadsAndInvalidates) {
  MetaClient mc = NewClient();
  NodeKey key{1, 1, Extent{0, 8}};
  ASSERT_TRUE(Put(&mc, key, MetaNode::Inner(1, 1)).ok());
  // A written node seeds the cache: this read must hit.
  ASSERT_TRUE(mc.GetNodeAsync(key).Wait().ok());
  MetaCacheStats st = mc.GetCacheStats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 0u);
  mc.InvalidateCache();
  ASSERT_TRUE(mc.GetNodeAsync(key).Wait().ok());
  st = mc.GetCacheStats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  // And the re-fetch repopulated it.
  ASSERT_TRUE(mc.GetNodeAsync(key).Wait().ok());
  EXPECT_EQ(mc.GetCacheStats().hits, 2u);
}

TEST_F(MetaClientTest, CacheEvictsAtCapacity) {
  MetaClient mc = NewClient(true, /*capacity=*/4);
  for (uint64_t i = 0; i < 16; i++) {
    ASSERT_TRUE(
        Put(&mc, NodeKey{1, i + 1, Extent{0, 2}}, MetaNode::Inner(1, 1))
            .ok());
  }
  // Oldest entries evicted: reading version 1 must miss.
  ASSERT_TRUE(mc.GetNodeAsync(NodeKey{1, 1, Extent{0, 2}}).Wait().ok());
  EXPECT_GE(mc.GetCacheStats().misses, 1u);
}

TEST_F(MetaClientTest, DisabledCacheAlwaysFetches) {
  MetaClient mc = NewClient(false);
  NodeKey key{1, 1, Extent{0, 2}};
  ASSERT_TRUE(Put(&mc, key, MetaNode::Inner(1, 1)).ok());
  ASSERT_TRUE(mc.GetNodeAsync(key).Wait().ok());
  ASSERT_TRUE(mc.GetNodeAsync(key).Wait().ok());
  MetaCacheStats st = mc.GetCacheStats();
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.puts, 0u);
}

TEST_F(MetaClientTest, ReadMetaCollectsExactlyTheIntersectingLeaves) {
  MetaClient mc = NewClient();
  WriteFigure1aTree(&mc);
  BranchAncestry anc({{1, kMaxVersion}});
  auto leaves = mc.ReadMetaAsync(anc, 1, 4, 1, Extent{1, 2}).Wait();
  ASSERT_TRUE(leaves.ok()) << leaves.status().ToString();
  ASSERT_EQ(leaves->size(), 2u);
  EXPECT_EQ((*leaves)[0].block.offset + (*leaves)[1].block.offset, 1u + 2u);
  // Full range.
  leaves = mc.ReadMetaAsync(anc, 1, 4, 1, Extent{0, 4}).Wait();
  ASSERT_TRUE(leaves.ok());
  EXPECT_EQ(leaves->size(), 4u);
  // Empty range: no fetch, no leaves.
  leaves = mc.ReadMetaAsync(anc, 1, 4, 1, Extent{1, 0}).Wait();
  ASSERT_TRUE(leaves.ok());
  EXPECT_TRUE(leaves->empty());
  // Out-of-range read rejected before any fetch.
  EXPECT_TRUE(mc.ReadMetaAsync(anc, 1, 4, 1, Extent{2, 3})
                  .Wait()
                  .status()
                  .IsOutOfRange());
  EXPECT_TRUE(mc.ReadMetaAsync(anc, 0, 0, 1, Extent{0, 1})
                  .Wait()
                  .status()
                  .IsOutOfRange());
}

TEST_F(MetaClientTest, ReadMetaDetectsHolesAndTypeMismatches) {
  MetaClient mc = NewClient();
  BranchAncestry anc({{1, kMaxVersion}});
  // Root whose right child is a hole, but blob_size says 4 pages: reading
  // the right half must report corruption.
  ASSERT_TRUE(
      Put(&mc, NodeKey{1, 1, {0, 4}}, MetaNode::Inner(1, kNoVersion)).ok());
  ASSERT_TRUE(Put(&mc, NodeKey{1, 1, {0, 2}}, MetaNode::Inner(1, 1)).ok());
  EXPECT_TRUE(mc.ReadMetaAsync(anc, 1, 4, 1, Extent{2, 2})
                  .Wait()
                  .status()
                  .IsCorruption());
  // Inner node stored where a leaf must live.
  ASSERT_TRUE(Put(&mc, NodeKey{1, 1, {0, 1}}, MetaNode::Inner(1, 1)).ok());
  ASSERT_TRUE(Put(&mc, NodeKey{1, 1, {1, 1}}, MetaNode::Inner(1, 1)).ok());
  EXPECT_TRUE(mc.ReadMetaAsync(anc, 1, 4, 1, Extent{0, 1})
                  .Wait()
                  .status()
                  .IsCorruption());
}

TEST_F(MetaClientTest, ResolveBordersWalksToTheLabel) {
  MetaClient mc = NewClient();
  // Figure 1(b): version 2 overwrote pages 1-2 of the 4-page version 1.
  WriteFigure1aTree(&mc);
  ASSERT_TRUE(Put(&mc, NodeKey{1, 2, {0, 4}}, MetaNode::Inner(2, 2)).ok());
  ASSERT_TRUE(Put(&mc, NodeKey{1, 2, {0, 2}}, MetaNode::Inner(1, 2)).ok());
  ASSERT_TRUE(Put(&mc, NodeKey{1, 2, {2, 2}}, MetaNode::Inner(2, 1)).ok());

  BranchAncestry anc({{1, kMaxVersion}});
  // Published root of v2: label of (0,4) is 2; page 0's leaf label is 1
  // (shared with v1), page 1's is 2.
  auto root = Resolve(&mc, anc, 2, 4, Extent{0, 4});
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*root, 2u);
  auto page0 = Resolve(&mc, anc, 2, 4, Extent{0, 1});
  ASSERT_TRUE(page0.ok());
  EXPECT_EQ(*page0, 1u);
  auto mid = Resolve(&mc, anc, 2, 4, Extent{2, 2});
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(*mid, 2u);
}

TEST_F(MetaClientTest, ResolveBordersEdgeCases) {
  MetaClient mc = NewClient();
  WriteFigure1aTree(&mc);
  BranchAncestry anc({{1, kMaxVersion}});
  // Nothing published: every block is a hole.
  auto none = Resolve(&mc, anc, 0, 0, Extent{0, 1});
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, kNoVersion);
  // Beyond the published span: hole.
  auto beyond = Resolve(&mc, anc, 1, 4, Extent{4, 2});
  ASSERT_TRUE(beyond.ok());
  EXPECT_EQ(*beyond, kNoVersion);
  // Strictly containing the published root: must come from the version
  // manager, so the client reports Internal.
  EXPECT_TRUE(Resolve(&mc, anc, 1, 4, Extent{0, 8}).status().IsInternal());
}

TEST_F(MetaClientTest, OneWalkFetchesEachPathNodeOnce) {
  MetaClient mc = NewClient(/*cache=*/false);
  WriteFigure1aTree(&mc);
  BranchAncestry anc({{1, kMaxVersion}});
  auto gets_before = dht_->TotalStatsAsync().Wait();
  ASSERT_TRUE(gets_before.ok());

  // One call resolves all four leaves: the targets share the root and
  // mid-level nodes, and no node is fetched twice.
  auto labels = mc.ResolveBordersAsync(anc, 1, 4, 1,
                                       {{0, 1}, {1, 1}, {2, 1}, {3, 1}})
                    .Wait();
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ(*labels, (std::vector<Version>{1, 1, 1, 1}));
  // Distinct nodes on the 4 paths: root + 2 mid nodes = 3 fetches (leaf
  // labels come from the parents), and the DHT served exactly those.
  auto gets_after = dht_->TotalStatsAsync().Wait();
  ASSERT_TRUE(gets_after.ok());
  EXPECT_EQ(gets_after->gets - gets_before->gets, 3u);
}

TEST_F(MetaClientTest, MultiPutWaveStoresEveryNode) {
  MetaClient mc = NewClient(/*cache=*/false);
  std::vector<dht::PutRequest> wave;
  for (uint64_t i = 0; i < 50; i++) {
    wave.push_back(MetaClient::NodePut(
        NodeKey{9, 1, Extent{i, 1}},
        MetaNode::Leaf({PageFragment{PageId{9, i}, 0, 1, 0}}, kNoVersion, 1)));
  }
  ASSERT_TRUE(dht_->MultiPutAsync(std::move(wave)).Wait().ok());
  for (uint64_t i = 0; i < 50; i++) {
    auto got = mc.GetNodeAsync(NodeKey{9, 1, Extent{i, 1}}).Wait();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->fragments[0].pid, (PageId{9, i}));
  }
}

TEST_F(MetaClientTest, CacheReplacesRewrittenNode) {
  // An abort repair rewrites the failed update's node keys with zero-fill
  // leaves; a writer that cached the old node must read the new one.
  MetaClient mc = NewClient();
  NodeKey key{1, 2, Extent{0, 1}};
  ASSERT_TRUE(Put(&mc, key,
                  MetaNode::Leaf({PageFragment{PageId{1, 1}, 0, 1, 0}},
                                 kNoVersion, 1))
                  .ok());
  ASSERT_TRUE(Put(&mc, key,
                  MetaNode::Leaf({PageFragment{PageId{1, 2}, 0, 1, 0}},
                                 kNoVersion, 1))
                  .ok());
  auto got = mc.GetNodeAsync(key).Wait();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->fragments[0].pid, (PageId{1, 2}));
  EXPECT_EQ(mc.GetCacheStats().hits, 1u);
}

TEST_F(MetaClientTest, BranchAncestryRoutesVersionsToOrigins) {
  // Blob 2 branched from blob 1 at version 3: nodes of versions <= 3 are
  // keyed by origin blob 1.
  MetaClient mc = NewClient();
  ASSERT_TRUE(Put(&mc, NodeKey{1, 2, {0, 2}}, MetaNode::Inner(2, 2)).ok());
  ASSERT_TRUE(Put(&mc, NodeKey{2, 4, {0, 2}}, MetaNode::Inner(4, 2)).ok());
  BranchAncestry anc({{1, 3}, {2, kMaxVersion}});
  EXPECT_EQ(anc.Resolve(2), 1u);
  EXPECT_EQ(anc.Resolve(3), 1u);
  EXPECT_EQ(anc.Resolve(4), 2u);
  // Descent through the branch point mixes origins transparently.
  auto label = Resolve(&mc, anc, 4, 2, Extent{0, 1});
  ASSERT_TRUE(label.ok());
  EXPECT_EQ(*label, 4u);
  auto shared = Resolve(&mc, anc, 2, 2, Extent{0, 1});
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(*shared, 2u);
}

}  // namespace
}  // namespace blobseer::meta
