// Failure handling: writer crash (abort retraction and zero-fill repair),
// provider loss, stalled-pipeline recovery. The paper defers volatility
// and failures to future work; DESIGN.md 3.3 documents the scheme built
// here.
#include <gtest/gtest.h>

#include <atomic>

#include "core/cluster.h"
#include "recording_transport.h"
#include "reference_blob.h"

namespace blobseer {
namespace {

using client::Blob;
using client::BlobClient;
using testing::ReferenceBlob;
using testing::TestPayload;

class FailureTest : public ::testing::Test {
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

TEST_F(FailureTest, AbortOfNewestUpdateRetracts) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ASSERT_TRUE(blob.AppendSync(TestPayload(0, 100)).ok());
  // A "crashed" writer: version assigned, then nothing.
  auto ticket = client_->vmanager().AssignVersionAsync(*id, true, 0, 50).Wait();
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(client_->Abort(*id, ticket->version).ok());
  // The pipeline is clean: next update reuses the version number.
  auto v = blob.AppendSync(TestPayload(1, 10));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 2u);
  auto size = blob.GetSize(2);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 110u);
}

TEST_F(FailureTest, AbortWithSuccessorRepairsAsZeroFill) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  std::string base = TestPayload(0, 256);
  ASSERT_TRUE(blob.AppendSync(base).ok());

  // Crashed writer gets v2 (a write over [64, 192)), then a healthy append
  // is assigned v3 and completes. v3 cannot publish until v2 resolves.
  auto dead =
      client_->vmanager().AssignVersionAsync(*id, false, 64, 128).Wait();
  ASSERT_TRUE(dead.ok());
  ASSERT_EQ(dead->version, 2u);
  std::string tail = TestPayload(5, 64);
  auto v3 = client_->Append(*id, Slice(tail));
  ASSERT_TRUE(v3.ok());
  ASSERT_EQ(*v3, 3u);
  EXPECT_TRUE(client_->Sync(*id, 3, 30 * 1000).IsTimedOut());

  // Repair: v2 becomes a zero-filled update; the chain publishes.
  ASSERT_TRUE(client_->Abort(*id, 2).ok());
  ASSERT_TRUE(client_->Sync(*id, 3, 5 * 1000 * 1000).ok());

  ReferenceBlob ref;
  ref.ApplyAppend(base);
  ref.ApplyZeroFill(64, 128);
  ref.ApplyAppend(tail);
  for (Version v = 1; v <= 3; v++) {
    std::string out;
    ASSERT_TRUE(blob.Read(v, 0, ref.Size(v), &out).ok()) << "v" << v;
    ASSERT_EQ(out, ref.Contents(v)) << "v" << v;
  }
  EXPECT_GT(client_->GetStats().repairs, 0u);
}

TEST_F(FailureTest, RepairedUnalignedAbortKeepsNeighbours) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  std::string base = TestPayload(0, 200);
  ASSERT_TRUE(blob.AppendSync(base).ok());

  // Crashed unaligned write [10, 25) + healthy successor.
  ASSERT_TRUE(
      client_->vmanager().AssignVersionAsync(*id, false, 10, 15).Wait().ok());
  auto v3 = client_->Append(*id, Slice(TestPayload(7, 30)));
  ASSERT_TRUE(v3.ok());
  ASSERT_TRUE(client_->Abort(*id, 2).ok());
  ASSERT_TRUE(client_->Sync(*id, 3).ok());

  ReferenceBlob ref;
  ref.ApplyAppend(base);
  ref.ApplyZeroFill(10, 15);
  ref.ApplyAppend(TestPayload(7, 30));
  std::string out;
  ASSERT_TRUE(blob.Read(2, 0, ref.Size(2), &out).ok());
  EXPECT_EQ(out, ref.Contents(2));
  ASSERT_TRUE(blob.Read(3, 0, ref.Size(3), &out).ok());
  EXPECT_EQ(out, ref.Contents(3));
}

TEST_F(FailureTest, ReadsFailCleanlyWhenProviderDies) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ASSERT_TRUE(blob.AppendSync(TestPayload(0, 64 * 8)).ok());
  // Kill a provider; some pages become unreachable (replication is future
  // work in the paper; we verify clean failure, not transparency).
  ASSERT_TRUE(cluster_->StopProvider(1).ok());
  std::string out;
  Status s = blob.Read(1, 0, 64 * 8, &out);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsUnavailable() || s.IsIOError()) << s.ToString();
}

TEST_F(FailureTest, WritesContinueWhenOtherProvidersRemain) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ASSERT_TRUE(blob.AppendSync(TestPayload(0, 64)).ok());
  ASSERT_TRUE(cluster_->StopProvider(2).ok());
  // The dead provider stays in the allocation rotation (no failure
  // detection yet), so writes may fail; after enough retries through the
  // rotation a client eventually succeeds on live providers. We verify
  // the specific contract: a write either fails cleanly or commits.
  int successes = 0;
  for (int i = 0; i < 8; i++) {
    auto v = blob.Append(TestPayload(i + 1, 64));
    if (v.ok()) {
      successes++;
      ASSERT_TRUE(client_->Sync(*id, *v).ok());
      std::string out;
      auto size = blob.GetSize(*v);
      ASSERT_TRUE(size.ok());
      ASSERT_TRUE(blob.Read(*v, *size - 64, 64, &out).ok());
      ASSERT_EQ(out, TestPayload(i + 1, 64));
    }
  }
  EXPECT_GT(successes, 0);
}

TEST_F(FailureTest, MetadataNodeLossDetectedOnRead) {
  core::ClusterOptions opts;
  opts.num_providers = 2;
  opts.num_meta = 1;  // all metadata on one node
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->NewClient([] {
    client::ClientOptions o;
    o.cache_metadata = false;  // force DHT reads
    return o;
  }());
  ASSERT_TRUE(client.ok());
  auto id = (*client)->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client->get(), *id);
  ASSERT_TRUE(blob.AppendSync(TestPayload(0, 128)).ok());
  ASSERT_TRUE((*cluster)->transport()->StopServing(
      (*cluster)->dht_addresses()[0]).ok());
  std::string out;
  EXPECT_FALSE(blob.Read(1, 0, 128, &out).ok());
}

// A DHT node that fails its multi-put mid-update leaves the update's wave
// partly landed. The writer aborts it; a successor is already assigned, so
// the abort repairs the version as zeros, rewriting the same node keys. The
// writer and a fresh client must then read the same zeros.
TEST_F(FailureTest, PartialDhtWaveRepairsToZerosForEveryReader) {
  testing::RecordingTransport rec(cluster_->transport());
  BlobClient writer(&rec, cluster_->vmanager_address(),
                    cluster_->pmanager_address(), cluster_->dht_addresses());
  auto id = writer.Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(&writer, *id);
  std::string base = TestPayload(0, 64 * 8);
  ASSERT_TRUE(blob.AppendSync(base).ok());

  const std::string down = cluster_->dht_addresses()[0];
  std::atomic<bool> dht_down{true};
  std::atomic<Version> successor{kNoVersion};
  rec.set_fault([&](rpc::Method method, const std::string& address) {
    // The node is back by the time the writer aborts, so the repair lands.
    if (method == rpc::Method::kVmAbortUpdate) dht_down = false;
    if (method != rpc::Method::kDhtMultiPut || address != down || !dht_down)
      return Status::OK();
    if (successor == kNoVersion) {
      // Another writer is assigned the next version while this wave is in
      // flight, so the abort must repair rather than retract.
      auto t = cluster_->vmanager().core().AssignVersion(*id, true, 0, 64);
      if (t.ok()) successor = t->version;
    }
    return Status::Unavailable("dht node down");
  });
  std::string update = TestPayload(1, 64 * 4);
  EXPECT_FALSE(blob.Write(Slice(update), 64 * 2).ok());
  rec.set_fault(nullptr);
  ASSERT_EQ(successor, 3u);

  // The wave did land on the other nodes before the abort.
  bool landed = false;
  for (const auto& call : rec.calls()) {
    if (call.method == rpc::Method::kVmAbortUpdate) break;
    landed |= call.method == rpc::Method::kDhtMultiPut && call.status.ok();
  }
  EXPECT_TRUE(landed);

  ASSERT_TRUE(writer.Sync(*id, 2, 5 * 1000 * 1000).ok());
  EXPECT_EQ(writer.GetStats().repairs, 1u);
  ReferenceBlob ref;
  ref.ApplyAppend(base);
  ref.ApplyZeroFill(64 * 2, 64 * 4);
  std::string via_writer, via_fresh;
  ASSERT_TRUE(blob.Read(2, 0, ref.Size(2), &via_writer).ok());
  ASSERT_TRUE(client_->Read(*id, 2, 0, ref.Size(2), &via_fresh).ok());
  EXPECT_EQ(via_writer, ref.Contents(2));
  EXPECT_EQ(via_fresh, via_writer);
  ASSERT_TRUE(writer.Abort(*id, successor).ok());
}

}  // namespace
}  // namespace blobseer
