// BRANCH semantics (paper section 2.1): cheap branching, shared history,
// independent evolution, metadata/data sharing across branches.
#include <gtest/gtest.h>

#include <thread>

#include "core/cluster.h"
#include "reference_blob.h"

namespace blobseer {
namespace {

using client::Blob;
using client::BlobClient;
using testing::ReferenceBlob;
using testing::TestPayload;

class BranchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::ClusterOptions opts;
    opts.num_providers = 4;
    opts.num_meta = 4;
    auto cluster = core::EmbeddedCluster::Start(opts);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).ValueUnsafe();
    auto client = cluster_->NewClient();
    ASSERT_TRUE(client.ok());
    client_ = std::move(client).ValueUnsafe();
  }

  std::unique_ptr<core::EmbeddedCluster> cluster_;
  std::unique_ptr<BlobClient> client_;
};

TEST_F(BranchTest, BranchReadsSharedHistory) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ReferenceBlob ref;
  for (int i = 0; i < 5; i++) {
    std::string data = TestPayload(i, 100);
    ASSERT_TRUE(blob.AppendSync(data).ok());
    ref.ApplyAppend(data);
  }
  auto branch = blob.Branch(3);
  ASSERT_TRUE(branch.ok());
  EXPECT_NE(branch->id(), *id);
  // Every version up to the branch point reads identically.
  for (Version v = 1; v <= 3; v++) {
    std::string a, b;
    ASSERT_TRUE(blob.Read(v, 0, ref.Size(v), &a).ok());
    ASSERT_TRUE(branch->Read(v, 0, ref.Size(v), &b).ok());
    EXPECT_EQ(a, b);
  }
  // Versions beyond the branch point exist only on the parent.
  std::string out;
  EXPECT_FALSE(branch->Read(4, 0, 10, &out).ok());
  auto recent = branch->GetRecent();
  ASSERT_TRUE(recent.ok());
  EXPECT_EQ(recent->version, 3u);
}

TEST_F(BranchTest, BranchesDivergeIndependently) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ReferenceBlob ref;
  std::string base = TestPayload(0, 300);
  ASSERT_TRUE(blob.AppendSync(base).ok());
  ref.ApplyAppend(base);

  auto branch = blob.Branch(1);
  ASSERT_TRUE(branch.ok());
  ReferenceBlob bref = ref.BranchAt(1);

  // Parent appends, branch overwrites; interleaved.
  for (int i = 1; i <= 8; i++) {
    std::string pdata = TestPayload(1000 + i, 60);
    ASSERT_TRUE(blob.AppendSync(pdata).ok());
    ref.ApplyAppend(pdata);
    std::string bdata = TestPayload(2000 + i, 45);
    uint64_t off = (i * 37) % 250;
    ASSERT_TRUE(branch->WriteSync(bdata, off).ok());
    bref.ApplyWrite(bdata, off);
  }
  for (Version v = 1; v <= ref.latest(); v++) {
    std::string out;
    ASSERT_TRUE(blob.Read(v, 0, ref.Size(v), &out).ok());
    ASSERT_EQ(out, ref.Contents(v)) << "parent v" << v;
  }
  for (Version v = 1; v <= bref.latest(); v++) {
    std::string out;
    ASSERT_TRUE(branch->Read(v, 0, bref.Size(v), &out).ok());
    ASSERT_EQ(out, bref.Contents(v)) << "branch v" << v;
  }
}

TEST_F(BranchTest, BranchIsCheap) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ASSERT_TRUE(blob.AppendSync(TestPayload(0, 64 * 32)).ok());  // 32 pages

  const uint64_t pages_before = cluster_->TotalProviderUsage().pages;
  const uint64_t keys_before = cluster_->TotalMetadataUsage().keys;

  auto branch = blob.Branch(1);
  ASSERT_TRUE(branch.ok());

  // Branching allocated no pages and wrote no metadata (O(1) in data size).
  EXPECT_EQ(cluster_->TotalProviderUsage().pages, pages_before);
  EXPECT_EQ(cluster_->TotalMetadataUsage().keys, keys_before);

  // A one-page branch write shares all other pages with the parent.
  ASSERT_TRUE(branch->WriteSync(TestPayload(1, 64), 0).ok());
  EXPECT_EQ(cluster_->TotalProviderUsage().pages, pages_before + 1);
}

TEST_F(BranchTest, NestedBranches) {
  auto id = client_->Create(32);
  ASSERT_TRUE(id.ok());
  Blob a(client_.get(), *id);
  ReferenceBlob aref;
  for (int i = 0; i < 3; i++) {
    std::string d = TestPayload(i, 70);
    ASSERT_TRUE(a.AppendSync(d).ok());
    aref.ApplyAppend(d);
  }
  auto b = a.Branch(2);
  ASSERT_TRUE(b.ok());
  ReferenceBlob bref = aref.BranchAt(2);
  std::string bd = TestPayload(100, 40);
  ASSERT_TRUE(b->AppendSync(bd).ok());
  bref.ApplyAppend(bd);

  // Branch of the branch, below the first branch point: resolves through
  // two levels of ancestry to the original blob's metadata.
  auto c = b->Branch(1);
  ASSERT_TRUE(c.ok());
  ReferenceBlob cref = bref.BranchAt(1);
  std::string cd = TestPayload(200, 25);
  ASSERT_TRUE(c->AppendSync(cd).ok());
  cref.ApplyAppend(cd);

  for (auto [handle, ref] :
       {std::make_pair(&a, &aref), {b.operator->(), &bref},
        {c.operator->(), &cref}}) {
    for (Version v = 1; v <= ref->latest(); v++) {
      std::string out;
      ASSERT_TRUE(handle->Read(v, 0, ref->Size(v), &out).ok());
      ASSERT_EQ(out, ref->Contents(v));
    }
  }
}

TEST_F(BranchTest, BranchFromEmptySnapshot) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ASSERT_TRUE(blob.AppendSync(TestPayload(0, 10)).ok());
  auto empty_branch = blob.Branch(0);
  ASSERT_TRUE(empty_branch.ok());
  auto recent = empty_branch->GetRecent();
  ASSERT_TRUE(recent.ok());
  EXPECT_EQ(recent->version, 0u);
  std::string d = TestPayload(1, 20);
  ASSERT_TRUE(empty_branch->AppendSync(d).ok());
  std::string out;
  ASSERT_TRUE(empty_branch->Read(1, 0, 20, &out).ok());
  EXPECT_EQ(out, d);
}

TEST_F(BranchTest, ConcurrentWritersOnSeparateBranches) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ASSERT_TRUE(blob.AppendSync(TestPayload(0, 500)).ok());

  constexpr int kBranches = 4;
  std::vector<Blob> branches;
  for (int i = 0; i < kBranches; i++) {
    auto b = blob.Branch(1);
    ASSERT_TRUE(b.ok());
    branches.push_back(*b);
  }
  std::vector<std::thread> threads;
  for (int i = 0; i < kBranches; i++) {
    threads.emplace_back([&, i] {
      ReferenceBlob ref;
      ref.ApplyAppend(TestPayload(0, 500));
      for (int k = 1; k <= 10; k++) {
        std::string d = TestPayload(i * 100 + k, 33);
        auto v = branches[i].AppendSync(d);
        ASSERT_TRUE(v.ok());
        ASSERT_EQ(*v, ref.ApplyAppend(d));
      }
      std::string out;
      ASSERT_TRUE(
          branches[i].Read(ref.latest(), 0, ref.Size(ref.latest()), &out).ok());
      ASSERT_EQ(out, ref.Contents(ref.latest()));
    });
  }
  for (auto& t : threads) t.join();
}

TEST_F(BranchTest, BranchValidation) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(client_->Branch(*id, 3).ok());  // unpublished
  EXPECT_FALSE(client_->Branch(999, 0).ok());  // unknown blob
}

}  // namespace
}  // namespace blobseer
