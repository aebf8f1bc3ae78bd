// End-to-end tests of the paper's interface (section 2.1) against an
// embedded cluster: single-client semantics, versioning, page sharing.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/cluster.h"
#include "dht/messages.h"
#include "recording_transport.h"
#include "reference_blob.h"

namespace blobseer {
namespace {

using client::Blob;
using client::BlobClient;
using testing::ReferenceBlob;
using testing::TestPayload;

class ClientBasicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::ClusterOptions opts;
    opts.num_providers = 4;
    opts.num_meta = 4;
    auto cluster = core::EmbeddedCluster::Start(opts);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(cluster).ValueUnsafe();
    auto client = cluster_->NewClient();
    ASSERT_TRUE(client.ok());
    client_ = std::move(client).ValueUnsafe();
  }

  std::unique_ptr<core::EmbeddedCluster> cluster_;
  std::unique_ptr<BlobClient> client_;
};

TEST_F(ClientBasicTest, CreateReturnsDistinctIds) {
  auto a = client_->Create(64);
  auto b = client_->Create(64);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
}

TEST_F(ClientBasicTest, EmptyBlobSemantics) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  auto v = client_->GetRecent(*id);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->version, 0u);
  EXPECT_EQ(v->size, 0u);
  std::string out;
  // Zero-length read of the empty snapshot succeeds...
  EXPECT_TRUE(client_->Read(*id, 0, 0, 0, &out).ok());
  // ...but any byte is out of range, and unpublished versions fail.
  EXPECT_TRUE(client_->Read(*id, 0, 0, 1, &out).IsOutOfRange());
  EXPECT_FALSE(client_->Read(*id, 1, 0, 1, &out).ok());
}

TEST_F(ClientBasicTest, AppendReadRoundTrip) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  std::string payload = TestPayload(1, 1000);  // ~16 pages
  auto v = blob.AppendSync(payload);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, 1u);
  std::string out;
  ASSERT_TRUE(blob.Read(1, 0, 1000, &out).ok());
  EXPECT_EQ(out, payload);
  // Partial reads at arbitrary unaligned boundaries.
  ASSERT_TRUE(blob.Read(1, 63, 130, &out).ok());
  EXPECT_EQ(out, payload.substr(63, 130));
  ASSERT_TRUE(blob.Read(1, 999, 1, &out).ok());
  EXPECT_EQ(out, payload.substr(999, 1));
}

TEST_F(ClientBasicTest, EveryVersionStaysReadable) {
  auto id = client_->Create(32);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ReferenceBlob ref;
  // A mix of appends and overwrites; verify all snapshots afterwards.
  struct Op {
    bool append;
    uint64_t offset;
    std::string data;
  };
  std::vector<Op> ops = {
      {true, 0, TestPayload(1, 100)},  {true, 0, TestPayload(2, 64)},
      {false, 32, TestPayload(3, 32)}, {false, 0, TestPayload(4, 200)},
      {true, 0, TestPayload(5, 17)},   {false, 150, TestPayload(6, 90)},
  };
  for (const Op& op : ops) {
    if (op.append) {
      auto v = blob.AppendSync(op.data);
      ASSERT_TRUE(v.ok()) << v.status().ToString();
      ASSERT_EQ(*v, ref.ApplyAppend(op.data));
    } else {
      auto v = blob.WriteSync(op.data, op.offset);
      ASSERT_TRUE(v.ok()) << v.status().ToString();
      ASSERT_EQ(*v, ref.ApplyWrite(op.data, op.offset));
    }
  }
  for (Version v = 0; v <= ref.latest(); v++) {
    auto size = blob.GetSize(v);
    ASSERT_TRUE(size.ok());
    ASSERT_EQ(*size, ref.Size(v)) << "version " << v;
    std::string out;
    ASSERT_TRUE(blob.Read(v, 0, *size, &out).ok()) << "version " << v;
    ASSERT_EQ(out, ref.Contents(v)) << "version " << v;
  }
}

TEST_F(ClientBasicTest, WriteBeyondEndFailsAndLeaksNothing) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ASSERT_TRUE(blob.AppendSync(TestPayload(1, 64)).ok());
  auto bad = blob.Write(TestPayload(2, 10), 100);
  EXPECT_TRUE(bad.status().IsOutOfRange());
  // The rejected write's pre-stored pages were garbage-collected.
  provider::PageStoreStats usage = cluster_->TotalProviderUsage();
  EXPECT_EQ(usage.pages, 1u);
  EXPECT_EQ(usage.bytes, 64u);
  // The version chain is unharmed.
  auto v = blob.AppendSync(TestPayload(3, 10));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 2u);
}

TEST_F(ClientBasicTest, ReadValidation) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ASSERT_TRUE(blob.AppendSync(TestPayload(1, 100)).ok());
  std::string out;
  EXPECT_TRUE(blob.Read(1, 50, 51, &out).IsOutOfRange());
  EXPECT_FALSE(blob.Read(7, 0, 1, &out).ok());  // never published
  // In-flight (assigned, unpublished) version is not readable either.
  ASSERT_TRUE(
      client_->vmanager().AssignVersionAsync(*id, true, 0, 10).Wait().ok());
  EXPECT_FALSE(blob.Read(2, 0, 1, &out).ok());
}

TEST_F(ClientBasicTest, UnmodifiedPagesArePhysicallyShared) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  // 8 pages, then overwrite one page; only 1 new page is stored (paper
  // section 4.3, "efficient use of storage space").
  ASSERT_TRUE(blob.AppendSync(TestPayload(1, 512)).ok());
  provider::PageStoreStats usage0 = cluster_->TotalProviderUsage();
  EXPECT_EQ(usage0.pages, 8u);
  ASSERT_TRUE(blob.WriteSync(TestPayload(2, 64), 128).ok());
  provider::PageStoreStats usage1 = cluster_->TotalProviderUsage();
  EXPECT_EQ(usage1.pages, 9u);
  EXPECT_EQ(usage1.bytes - usage0.bytes, 64u);
  // Both versions still read correctly.
  std::string v1, v2;
  ASSERT_TRUE(blob.Read(1, 0, 512, &v1).ok());
  ASSERT_TRUE(blob.Read(2, 0, 512, &v2).ok());
  EXPECT_EQ(v1.substr(0, 128), v2.substr(0, 128));
  EXPECT_EQ(v2.substr(128, 64), TestPayload(2, 64));
  EXPECT_EQ(v1.substr(192), v2.substr(192));
}

TEST_F(ClientBasicTest, SyncTimesOutOnStalledVersion) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  // Stall the pipeline: an assigned version that never completes.
  ASSERT_TRUE(
      client_->vmanager().AssignVersionAsync(*id, true, 0, 10).Wait().ok());
  EXPECT_TRUE(client_->Sync(*id, 1, 50 * 1000).IsTimedOut());
}

TEST_F(ClientBasicTest, GetRecentIsMonotonic) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  Version last = 0;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(blob.AppendSync(TestPayload(i, 33)).ok());
    auto v = blob.GetRecent();
    ASSERT_TRUE(v.ok());
    EXPECT_GE(v->version, last);
    last = v->version;
  }
  EXPECT_EQ(last, 10u);
}

TEST_F(ClientBasicTest, SecondClientSeesPublishedData) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  std::string payload = TestPayload(9, 300);
  ASSERT_TRUE(blob.AppendSync(payload).ok());

  auto other = cluster_->NewClient();
  ASSERT_TRUE(other.ok());
  std::string out;
  ASSERT_TRUE((*other)->Read(*id, 1, 0, 300, &out).ok());
  EXPECT_EQ(out, payload);
}

TEST_F(ClientBasicTest, LargeMultiPageReadAcrossManyUpdates) {
  auto id = client_->Create(128);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ReferenceBlob ref;
  for (int i = 0; i < 40; i++) {
    std::string data = TestPayload(i, 100 + i * 13);
    ASSERT_TRUE(blob.AppendSync(data).ok());
    ref.ApplyAppend(data);
  }
  std::string out;
  auto size = blob.GetSize(40);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(blob.Read(40, 0, *size, &out).ok());
  EXPECT_EQ(out, ref.Contents(40));
  // Middle slice spanning many update boundaries.
  ASSERT_TRUE(blob.Read(40, 500, 3000, &out).ok());
  EXPECT_EQ(out, ref.Read(40, 500, 3000));
}

TEST_F(ClientBasicTest, WorksOverTcpLoopback) {
  core::ClusterOptions opts;
  opts.num_providers = 3;
  opts.num_meta = 2;
  opts.transport = "tcp";
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  auto client = (*cluster)->NewClient();
  ASSERT_TRUE(client.ok());
  auto id = (*client)->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client->get(), *id);
  std::string payload = TestPayload(4, 1000);
  auto v = blob.AppendSync(payload);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  std::string out;
  ASSERT_TRUE(blob.Read(*v, 0, 1000, &out).ok());
  EXPECT_EQ(out, payload);
  ASSERT_TRUE(blob.WriteSync(TestPayload(5, 64), 10).ok());
  ASSERT_TRUE(blob.Read(2, 0, 1000, &out).ok());
  std::string want = payload;
  want.replace(10, 64, TestPayload(5, 64));
  EXPECT_EQ(out, want);
}

TEST_F(ClientBasicTest, UnknownPageStoreIsRejected) {
  core::ClusterOptions opts;
  opts.page_store = "file:" + ::testing::TempDir() + "/bs_cluster_pages";
  EXPECT_TRUE(
      core::EmbeddedCluster::Start(opts).status().IsInvalidArgument());
}

TEST(MakePageStoreTest, KnownSpecsOnly) {
  EXPECT_NE(core::MakePageStore("memory"), nullptr);
  EXPECT_NE(core::MakePageStore("null"), nullptr);
  EXPECT_EQ(core::MakePageStore("file:/tmp/pages"), nullptr);
  EXPECT_EQ(core::MakePageStore("Memory"), nullptr);
  EXPECT_EQ(core::MakePageStore(""), nullptr);
}

TEST_F(ClientBasicTest, LogBackedProvidersRoundTrip) {
  const std::string dir = ::testing::TempDir() + "/bs_cluster_pages";
  std::filesystem::remove_all(dir);
  core::ClusterOptions opts;
  opts.num_providers = 2;
  opts.num_meta = 2;
  opts.page_store = "log:" + dir;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->NewClient();
  ASSERT_TRUE(client.ok());
  auto id = (*client)->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client->get(), *id);
  std::string payload = TestPayload(11, 500);
  ASSERT_TRUE(blob.AppendSync(payload).ok());
  std::string out;
  ASSERT_TRUE(blob.Read(1, 0, 500, &out).ok());
  EXPECT_EQ(out, payload);
}

// One 4-page append into a 2048-page blob (r=1, 4 DHT nodes) ends with one
// DHT wave: the page writes are durable before it, the update's tree nodes
// and location entries travel only as kDhtMultiPut batches (at most one per
// DHT node), the provider manager hears of the pages only after every batch
// landed (its rebuilder forgets a reported page whose entry is missing),
// and publication comes last.
TEST_F(ClientBasicTest, AppendEndsWithOneDhtWave) {
  testing::RecordingTransport rec(cluster_->transport());
  BlobClient writer(&rec, cluster_->vmanager_address(),
                    cluster_->pmanager_address(), cluster_->dht_addresses());
  constexpr uint64_t kPsize = 64;
  auto id = writer.Create(kPsize);
  ASSERT_TRUE(id.ok());
  std::string base = TestPayload(0, 2048 * kPsize);
  ASSERT_TRUE(writer.Append(*id, Slice(base)).ok());
  const size_t mark = rec.calls().size();
  const uint64_t nodes_before = writer.GetStats().meta_nodes_written;

  std::string tail = TestPayload(1, 4 * kPsize);
  ASSERT_TRUE(writer.Append(*id, Slice(tail)).ok());
  std::vector<testing::RecordingTransport::Call> calls = rec.calls();
  calls.erase(calls.begin(), calls.begin() + mark);

  size_t page_writes = 0, dht_writes = 0, node_keys = 0, location_keys = 0;
  uint64_t last_page_write = 0, first_wave = UINT64_MAX, last_wave = 0;
  for (const auto& call : calls) {
    ASSERT_NE(call.finished, 0u) << "call still in flight";
    ASSERT_TRUE(call.status.ok()) << call.status.ToString();
    switch (call.method) {
      case rpc::Method::kProviderWrite:
        page_writes++;
        last_page_write = std::max(last_page_write, call.finished);
        break;
      case rpc::Method::kDhtPut:
      case rpc::Method::kDhtCas:
        dht_writes++;
        ADD_FAILURE() << "single-key DHT write";
        break;
      case rpc::Method::kDhtMultiPut: {
        dht_writes++;
        first_wave = std::min(first_wave, call.started);
        last_wave = std::max(last_wave, call.finished);
        dht::MultiPutRequest req;
        ASSERT_TRUE(DecodePayload(Slice(call.request), &req).ok());
        for (const auto& e : req.entries) {
          ASSERT_FALSE(e.key.empty());
          if (e.key[0] == 'N') node_keys++;
          if (e.key[0] == 'L') location_keys++;
        }
        break;
      }
      default:
        break;
    }
  }
  EXPECT_EQ(page_writes, 4u);
  EXPECT_LE(dht_writes, cluster_->dht_addresses().size());
  EXPECT_EQ(location_keys, 4u);
  EXPECT_EQ(node_keys, writer.GetStats().meta_nodes_written - nodes_before);
  EXPECT_GT(node_keys, 4u);
  EXPECT_LT(last_page_write, first_wave);

  size_t reports = 0;
  for (const auto& call : calls) {
    if (call.method != rpc::Method::kPmReportLocations) continue;
    reports++;
    EXPECT_GT(call.started, last_wave);
  }
  EXPECT_EQ(reports, 1u);
  ASSERT_FALSE(calls.empty());
  const auto& last = calls.back();  // calls are in start order
  EXPECT_EQ(last.method, rpc::Method::kVmNotifySuccess);
  for (size_t i = 0; i + 1 < calls.size(); i++)
    EXPECT_LT(calls[i].finished, last.started);

  ASSERT_TRUE(writer.Sync(*id, 2).ok());
  std::string out;
  ASSERT_TRUE(writer.Read(*id, 2, base.size(), tail.size(), &out).ok());
  EXPECT_EQ(out, tail);
}

}  // namespace
}  // namespace blobseer
