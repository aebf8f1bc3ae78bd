// Unaligned I/O: fragment-chain leaves, edge-page resolution, chain
// compaction (the paper's "slightly more complex" case, DESIGN.md 3.2).
#include <gtest/gtest.h>

#include "core/cluster.h"
#include "reference_blob.h"

namespace blobseer {
namespace {

using client::Blob;
using client::BlobClient;
using client::ClientOptions;
using testing::ReferenceBlob;
using testing::TestPayload;

class UnalignedTest : public ::testing::Test {
 protected:
  void Start(ClientOptions copts = {}) {
    core::ClusterOptions opts;
    opts.num_providers = 4;
    opts.num_meta = 4;
    auto cluster = core::EmbeddedCluster::Start(opts);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).ValueUnsafe();
    auto client = cluster_->NewClient(copts);
    ASSERT_TRUE(client.ok());
    client_ = std::move(client).ValueUnsafe();
  }

  std::unique_ptr<core::EmbeddedCluster> cluster_;
  std::unique_ptr<BlobClient> client_;
};

TEST_F(UnalignedTest, SubPageWritePreservesNeighbours) {
  Start();
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  std::string base = TestPayload(1, 64);
  ASSERT_TRUE(blob.AppendSync(base).ok());
  // Overwrite bytes [10, 20) inside the single page.
  std::string patch = TestPayload(2, 10);
  ASSERT_TRUE(blob.WriteSync(patch, 10).ok());
  std::string out;
  ASSERT_TRUE(blob.Read(2, 0, 64, &out).ok());
  std::string want = base;
  want.replace(10, 10, patch);
  EXPECT_EQ(out, want);
  // The sub-page write stored only its own bytes.
  EXPECT_EQ(cluster_->TotalProviderUsage().bytes, 64u + 10u);
}

TEST_F(UnalignedTest, WriteSpanningPagesWithRaggedEdges) {
  Start();
  auto id = client_->Create(32);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ReferenceBlob ref;
  std::string base = TestPayload(1, 160);  // 5 pages
  ASSERT_TRUE(blob.AppendSync(base).ok());
  ref.ApplyAppend(base);
  // [17, 113): partial head page, 2 full pages, partial tail page.
  std::string patch = TestPayload(2, 96);
  ASSERT_TRUE(blob.WriteSync(patch, 17).ok());
  ref.ApplyWrite(patch, 17);
  std::string out;
  ASSERT_TRUE(blob.Read(2, 0, 160, &out).ok());
  EXPECT_EQ(out, ref.Contents(2));
  // Version 1 untouched.
  ASSERT_TRUE(blob.Read(1, 0, 160, &out).ok());
  EXPECT_EQ(out, base);
}

TEST_F(UnalignedTest, UnalignedAppendsChainCorrectly) {
  Start();
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ReferenceBlob ref;
  // Appends of awkward sizes: page boundaries land mid-append.
  for (int i = 0; i < 30; i++) {
    std::string data = TestPayload(i, 7 + (i * 13) % 90);
    ASSERT_TRUE(blob.AppendSync(data).ok()) << "append " << i;
    ref.ApplyAppend(data);
  }
  for (Version v = 1; v <= ref.latest(); v++) {
    std::string out;
    ASSERT_TRUE(blob.Read(v, 0, ref.Size(v), &out).ok()) << "v" << v;
    ASSERT_EQ(out, ref.Contents(v)) << "v" << v;
  }
}

TEST_F(UnalignedTest, RepeatedSubPageWritesGrowAChainThatStillReads) {
  ClientOptions copts;
  copts.max_chain = 1000;  // effectively disable compaction
  Start(copts);
  auto id = client_->Create(256);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ReferenceBlob ref;
  std::string base = TestPayload(0, 256);
  ASSERT_TRUE(blob.AppendSync(base).ok());
  ref.ApplyAppend(base);
  // 40 tiny writes at varying offsets within the page.
  for (int i = 1; i <= 40; i++) {
    std::string patch = TestPayload(i, 5);
    uint64_t off = (i * 37) % 250;
    ASSERT_TRUE(blob.WriteSync(patch, off).ok());
    ref.ApplyWrite(patch, off);
  }
  for (Version v = 1; v <= ref.latest(); v += 7) {
    std::string out;
    ASSERT_TRUE(blob.Read(v, 0, 256, &out).ok());
    ASSERT_EQ(out, ref.Contents(v)) << "v" << v;
  }
  std::string out;
  ASSERT_TRUE(blob.Read(ref.latest(), 0, 256, &out).ok());
  EXPECT_EQ(out, ref.Contents(ref.latest()));
}

TEST_F(UnalignedTest, CompactionBoundsChainAndPreservesContent) {
  ClientOptions copts;
  copts.max_chain = 4;
  Start(copts);
  auto id = client_->Create(128);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ReferenceBlob ref;
  std::string base = TestPayload(0, 128);
  ASSERT_TRUE(blob.AppendSync(base).ok());
  ref.ApplyAppend(base);
  for (int i = 1; i <= 24; i++) {
    std::string patch = TestPayload(i, 9);
    uint64_t off = (i * 31) % 119;
    ASSERT_TRUE(blob.WriteSync(patch, off).ok());
    ref.ApplyWrite(patch, off);
  }
  EXPECT_GT(client_->GetStats().compactions, 0u);
  for (Version v = 1; v <= ref.latest(); v++) {
    std::string out;
    ASSERT_TRUE(blob.Read(v, 0, 128, &out).ok());
    ASSERT_EQ(out, ref.Contents(v)) << "v" << v;
  }
}

TEST_F(UnalignedTest, AppendAfterUnalignedEndMergesTailPage) {
  Start();
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  // Leave the blob at an unaligned size, then append: the append's head
  // page must merge with the existing tail content.
  ASSERT_TRUE(blob.AppendSync(TestPayload(1, 50)).ok());
  ASSERT_TRUE(blob.AppendSync(TestPayload(2, 100)).ok());
  ASSERT_TRUE(blob.AppendSync(TestPayload(3, 3)).ok());
  ReferenceBlob ref;
  ref.ApplyAppend(TestPayload(1, 50));
  ref.ApplyAppend(TestPayload(2, 100));
  ref.ApplyAppend(TestPayload(3, 3));
  std::string out;
  ASSERT_TRUE(blob.Read(3, 0, 153, &out).ok());
  EXPECT_EQ(out, ref.Contents(3));
  ASSERT_TRUE(blob.Read(2, 40, 70, &out).ok());
  EXPECT_EQ(out, ref.Read(2, 40, 70));
}

TEST_F(UnalignedTest, GrowThroughWriteExtendingTail) {
  Start();
  auto id = client_->Create(32);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ASSERT_TRUE(blob.AppendSync(TestPayload(1, 40)).ok());
  // Write overlapping the end and extending the blob: offset 30, len 30.
  std::string patch = TestPayload(2, 30);
  ASSERT_TRUE(blob.WriteSync(patch, 30).ok());
  auto size = blob.GetSize(2);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 60u);
  ReferenceBlob ref;
  ref.ApplyAppend(TestPayload(1, 40));
  ref.ApplyWrite(patch, 30);
  std::string out;
  ASSERT_TRUE(blob.Read(2, 0, 60, &out).ok());
  EXPECT_EQ(out, ref.Contents(2));
}

TEST_F(UnalignedTest, SingleByteGranularity) {
  Start();
  auto id = client_->Create(8);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ReferenceBlob ref;
  for (int i = 0; i < 20; i++) {
    std::string one(1, static_cast<char>('A' + i));
    ASSERT_TRUE(blob.AppendSync(one).ok());
    ref.ApplyAppend(one);
  }
  std::string out;
  ASSERT_TRUE(blob.Read(20, 0, 20, &out).ok());
  EXPECT_EQ(out, "ABCDEFGHIJKLMNOPQRST");
  for (int i = 0; i < 10; i++) {
    std::string one(1, static_cast<char>('a' + i));
    ASSERT_TRUE(blob.WriteSync(one, i * 2).ok());
    ref.ApplyWrite(one, i * 2);
  }
  ASSERT_TRUE(blob.Read(30, 0, 20, &out).ok());
  EXPECT_EQ(out, ref.Contents(30));
}

}  // namespace
}  // namespace blobseer
