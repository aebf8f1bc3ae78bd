// Metadata node codec and key tests.
#include <gtest/gtest.h>

#include <vector>

#include "meta/node.h"

namespace blobseer::meta {
namespace {

TEST(NodeKeyTest, DhtKeyIsInjective) {
  NodeKey a{1, 2, Extent{0, 64}};
  NodeKey b{1, 2, Extent{64, 64}};
  NodeKey c{1, 3, Extent{0, 64}};
  NodeKey d{2, 2, Extent{0, 64}};
  EXPECT_NE(a.ToDhtKey(), b.ToDhtKey());
  EXPECT_NE(a.ToDhtKey(), c.ToDhtKey());
  EXPECT_NE(a.ToDhtKey(), d.ToDhtKey());
  EXPECT_EQ(a.ToDhtKey(), (NodeKey{1, 2, Extent{0, 64}}).ToDhtKey());
}

TEST(MetaNodeTest, InnerRoundTrip) {
  MetaNode n = MetaNode::Inner(5, kNoVersion);
  BinaryWriter w;
  n.EncodeTo(&w);
  MetaNode decoded;
  BinaryReader r{Slice(w.buffer())};
  ASSERT_TRUE(decoded.DecodeFrom(&r).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_FALSE(decoded.is_leaf());
  EXPECT_EQ(decoded.left_version, 5u);
  EXPECT_EQ(decoded.right_version, kNoVersion);
}

TEST(MetaNodeTest, LeafRoundTrip) {
  MetaNode n = MetaNode::Leaf(
      {PageFragment{PageId{10, 20}, 100, 28, 4},
       PageFragment{PageId{11, 21}, 0, 100, 0}},
      7, 3);
  BinaryWriter w;
  n.EncodeTo(&w);
  MetaNode decoded;
  BinaryReader r{Slice(w.buffer())};
  ASSERT_TRUE(decoded.DecodeFrom(&r).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  ASSERT_TRUE(decoded.is_leaf());
  EXPECT_EQ(decoded.prev_version, 7u);
  EXPECT_EQ(decoded.chain_len, 3u);
  ASSERT_EQ(decoded.fragments.size(), 2u);
  EXPECT_EQ(decoded.fragments[0], n.fragments[0]);
  EXPECT_EQ(decoded.fragments[1], n.fragments[1]);
}

TEST(MetaNodeTest, CorruptTypeRejected) {
  std::vector<BinaryWriter> inputs(5);
  inputs[0].PutU8(9);  // unknown format marker
  // v3 marker followed by an unknown node type.
  inputs[1].PutU8(kNodeFormatV3);
  inputs[1].PutU8(7);
  // Format v1 leaf: no marker (byte 0 was the node type) and one provider
  // id per fragment.
  inputs[2].PutU8(1);
  inputs[2].PutU64(7);  // prev_version
  inputs[2].PutU32(3);  // chain_len
  inputs[2].PutU32(1);  // fragment count
  inputs[2].PutPageId(PageId{10, 20});
  inputs[2].PutU32(6);  // the single provider
  inputs[2].PutU32(100);
  inputs[2].PutU32(28);
  inputs[2].PutU32(4);
  // Format v1 inner node.
  inputs[3].PutU8(0);
  inputs[3].PutU64(5);
  inputs[3].PutU64(kNoVersion);
  // Format v2 leaf: marker 2 and an embedded replica set per fragment.
  inputs[4].PutU8(2);
  inputs[4].PutU8(1);   // type = leaf
  inputs[4].PutU64(7);  // prev_version
  inputs[4].PutU32(3);  // chain_len
  inputs[4].PutU32(1);  // fragment count
  inputs[4].PutPageId(PageId{10, 20});
  inputs[4].PutU8(2);  // replica count
  inputs[4].PutU32(3);
  inputs[4].PutU32(5);
  inputs[4].PutU32(100);
  inputs[4].PutU32(28);
  inputs[4].PutU32(4);
  // Nodes live in the in-memory DHT, so only v3 is ever valid.
  for (size_t i = 0; i < inputs.size(); i++) {
    MetaNode n;
    BinaryReader r{Slice(inputs[i].buffer())};
    EXPECT_TRUE(n.DecodeFrom(&r).IsCorruption()) << "input " << i;
  }
}

TEST(MetaNodeTest, TruncatedLeafRejected) {
  MetaNode n = MetaNode::Leaf({PageFragment{PageId{1, 1}, 0, 8, 0}},
                              kNoVersion, 1);
  BinaryWriter w;
  n.EncodeTo(&w);
  MetaNode decoded;
  BinaryReader r{Slice(w.buffer().data(), w.buffer().size() - 3)};
  EXPECT_TRUE(decoded.DecodeFrom(&r).IsCorruption());
}

TEST(MetaNodeTest, ToStringIsInformative) {
  EXPECT_NE(MetaNode::Inner(1, 2).ToString().find("inner"),
            std::string::npos);
  EXPECT_NE(MetaNode::Leaf({}, kNoVersion, 1).ToString().find("leaf"),
            std::string::npos);
  EXPECT_NE((NodeKey{1, 2, Extent{0, 8}}).ToString().find("blob=1"),
            std::string::npos);
}

}  // namespace
}  // namespace blobseer::meta
