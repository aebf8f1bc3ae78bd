// End-to-end tests of the futures-based client API: many in-flight
// operations on one client, out-of-order completion, WhenAll fan-in,
// failure propagation through continuation chains, and timeout behavior
// under the simnet virtual clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/sim_cluster.h"
#include "reference_blob.h"

namespace blobseer {
namespace {

using client::Blob;
using client::BlobClient;
using testing::TestPayload;

class ClientAsyncTest : public ::testing::Test {
 protected:
  void Start(core::ClusterOptions opts) {
    auto cluster = core::EmbeddedCluster::Start(opts);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(cluster).ValueUnsafe();
    auto client = cluster_->NewClient();
    ASSERT_TRUE(client.ok());
    client_ = std::move(client).ValueUnsafe();
  }
  void SetUp() override {
    core::ClusterOptions opts;
    opts.num_providers = 4;
    opts.num_meta = 4;
    Start(opts);
  }

  std::unique_ptr<core::EmbeddedCluster> cluster_;
  std::unique_ptr<BlobClient> client_;
};

TEST_F(ClientAsyncTest, ManyInFlightAppendsOnOneClient) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  constexpr int kOps = 64;
  // Payloads must outlive the futures (Slice-borrow rule).
  std::vector<std::string> payloads;
  payloads.reserve(kOps);
  for (int i = 0; i < kOps; i++) payloads.push_back(TestPayload(i, 100));
  std::vector<Future<Version>> futures;
  futures.reserve(kOps);
  for (int i = 0; i < kOps; i++)
    futures.push_back(client_->AppendAsync(*id, payloads[i]));

  // WhenAll fan-in: versions 1..kOps each assigned exactly once.
  auto all = WhenAll(std::move(futures)).Wait(client_->executor());
  ASSERT_TRUE(all.ok());
  std::set<Version> versions;
  for (const auto& r : *all) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    versions.insert(*r);
  }
  EXPECT_EQ(versions.size(), static_cast<size_t>(kOps));
  EXPECT_EQ(*versions.begin(), 1u);
  EXPECT_EQ(*versions.rbegin(), static_cast<Version>(kOps));

  // Everything published and readable afterwards.
  ASSERT_TRUE(client_->Sync(*id, kOps).ok());
  auto recent = client_->GetRecent(*id);
  ASSERT_TRUE(recent.ok());
  EXPECT_EQ(recent->version, static_cast<Version>(kOps));
  EXPECT_EQ(recent->size, static_cast<uint64_t>(kOps) * 100);
}

TEST_F(ClientAsyncTest, AsyncWriteReadRoundTripOverTcp) {
  core::ClusterOptions opts;
  opts.num_providers = 3;
  opts.num_meta = 2;
  opts.transport = "tcp";
  Start(opts);

  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  std::string payload = TestPayload(7, 5000);  // ~79 pages
  auto version = client_->AppendAsync(*id, payload).Wait();
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  ASSERT_TRUE(client_->SyncAsync(*id, *version).Wait().ok());

  // Several overlapping async reads, collected out of issue order.
  std::vector<Future<std::string>> reads;
  reads.push_back(client_->ReadAsync(*id, *version, 0, 5000));
  reads.push_back(client_->ReadAsync(*id, *version, 63, 130));
  reads.push_back(client_->ReadAsync(*id, *version, 4999, 1));
  auto all = WhenAll(std::move(reads)).Wait();
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE((*all)[0].ok()) << (*all)[0].status().ToString();
  EXPECT_EQ(*(*all)[0], payload);
  EXPECT_EQ(*(*all)[1], payload.substr(63, 130));
  EXPECT_EQ(*(*all)[2], payload.substr(4999, 1));
}

TEST_F(ClientAsyncTest, ContinuationChainsObserveEachStage) {
  // A read-modify-write pipeline built purely from continuations.
  auto id = client_->Create(32);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  std::string first = TestPayload(1, 96);
  auto v1 = blob.AppendSyncAsync(first).Wait(client_->executor());
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();

  BlobClient* c = client_.get();
  BlobId bid = *id;
  auto payload = std::make_shared<std::string>();
  auto chained =
      c->ReadAsync(bid, *v1, 0, 96)
          .Then([c, bid, payload](Result<std::string> data) -> Future<Version> {
            if (!data.ok()) return MakeReadyFuture<Version>(data.status());
            *payload = std::move(*data);
            std::reverse(payload->begin(), payload->end());
            return c->WriteAsync(bid, *payload, 0);
          })
          .Then([c, bid](Result<Version> v) -> Future<Unit> {
            if (!v.ok()) return MakeReadyFuture(v.status());
            return c->SyncAsync(bid, *v);
          });
  ASSERT_TRUE(chained.Wait(client_->executor()).ok());

  std::string out;
  ASSERT_TRUE(client_->Read(bid, *v1 + 1, 0, 96, &out).ok());
  std::string want = first;
  std::reverse(want.begin(), want.end());
  EXPECT_EQ(out, want);
}

TEST_F(ClientAsyncTest, FailurePropagatesThroughChain) {
  // Unknown blob: the first stage fails and the error reaches the future.
  auto missing = client_->AppendAsync(12345, "data").Wait(client_->executor());
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status().ToString();

  // Read beyond the snapshot: a mid-chain validation failure.
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ASSERT_TRUE(blob.AppendSync(TestPayload(1, 100)).ok());
  auto r = client_->ReadAsync(*id, 1, 50, 51).Wait(client_->executor());
  EXPECT_TRUE(r.status().IsOutOfRange());
  // Unpublished version: publication check fails.
  auto r2 = client_->ReadAsync(*id, 9, 0, 1).Wait(client_->executor());
  EXPECT_FALSE(r2.ok());
}

TEST_F(ClientAsyncTest, FailedAsyncWriteLeaksNothing) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ASSERT_TRUE(blob.AppendSync(TestPayload(1, 64)).ok());
  // Beyond-end write fails through the async chain, and its pre-stored
  // pages are garbage-collected before the future resolves.
  std::string data = TestPayload(2, 10);
  auto bad = client_->WriteAsync(*id, data, 100).Wait(client_->executor());
  EXPECT_TRUE(bad.status().IsOutOfRange());
  provider::PageStoreStats usage = cluster_->TotalProviderUsage();
  EXPECT_EQ(usage.pages, 1u);
  EXPECT_EQ(usage.bytes, 64u);
  // The version chain is unharmed.
  EXPECT_TRUE(blob.AppendSync(TestPayload(3, 10)).ok());
}

TEST_F(ClientAsyncTest, MixedReadersAndWritersInFlight) {
  auto id = client_->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ASSERT_TRUE(blob.AppendSync(TestPayload(0, 640)).ok());

  std::vector<std::string> payloads;
  for (int i = 1; i <= 16; i++) payloads.push_back(TestPayload(i, 64));
  std::vector<Future<Version>> writes;
  std::vector<Future<std::string>> reads;
  for (int i = 0; i < 16; i++) {
    writes.push_back(client_->AppendAsync(*id, payloads[i]));
    reads.push_back(client_->ReadAsync(*id, 1, i * 40, 40));
  }
  auto wr = WhenAll(std::move(writes)).Wait(client_->executor());
  auto rr = WhenAll(std::move(reads)).Wait(client_->executor());
  ASSERT_TRUE(wr.ok());
  ASSERT_TRUE(rr.ok());
  for (const auto& w : *wr) ASSERT_TRUE(w.ok()) << w.status().ToString();
  std::string snapshot = TestPayload(0, 640);
  for (int i = 0; i < 16; i++) {
    ASSERT_TRUE((*rr)[i].ok()) << (*rr)[i].status().ToString();
    EXPECT_EQ(*(*rr)[i], snapshot.substr(i * 40, 40));
  }
}

TEST(ClientAsyncSimTest, TimeoutUnderVirtualClock) {
  // SyncAsync against a version that never publishes must resolve TimedOut
  // after *virtual* time passes — instantly in wall-clock terms.
  simnet::SimScheduler sched;
  Status sync_status;
  double virtual_elapsed = 0;
  sched.Run([&] {
    core::SimClusterOptions opts;
    opts.num_provider_nodes = 3;
    core::SimCluster cluster(&sched, opts);
    auto client = cluster.NewClient();
    auto id = client->Create(64);
    ASSERT_TRUE(id.ok());
    // Stall the pipeline: an assigned version that never completes.
    ASSERT_TRUE(client->vmanager()
                    .AssignVersionAsync(*id, true, 0, 10)
                    .Wait(client->executor())
                    .ok());
    double t0 = sched.Now();
    auto f = client->SyncAsync(*id, 1, 5 * 1000 * 1000);  // 5 virtual s
    sync_status = f.Wait(client->executor()).status();
    virtual_elapsed = sched.Now() - t0;
  });
  EXPECT_TRUE(sync_status.IsTimedOut()) << sync_status.ToString();
  EXPECT_GE(virtual_elapsed, 5.0 * 1000 * 1000);
}

TEST(ClientAsyncSimTest, OutOfOrderCompletionUnderSim) {
  // Two async appends from one sim task: the second (smaller) op can pass
  // the first in virtual time; both futures resolve correctly and the
  // version order is the assignment order.
  simnet::SimScheduler sched;
  bool checked = false;
  sched.Run([&] {
    core::SimClusterOptions opts;
    opts.num_provider_nodes = 4;
    core::SimCluster cluster(&sched, opts);
    auto client = cluster.NewClient();
    auto id = client->Create(4096);
    ASSERT_TRUE(id.ok());
    std::string big = TestPayload(1, 64 * 1024);
    std::string small = TestPayload(2, 4 * 1024);
    auto f_big = client->AppendAsync(*id, big);
    auto f_small = client->AppendAsync(*id, small);
    auto v_small = f_small.Wait(client->executor());
    auto v_big = f_big.Wait(client->executor());
    ASSERT_TRUE(v_big.ok()) << v_big.status().ToString();
    ASSERT_TRUE(v_small.ok()) << v_small.status().ToString();
    EXPECT_EQ(*v_big, 1u);
    EXPECT_EQ(*v_small, 2u);
    ASSERT_TRUE(client->Sync(*id, 2).ok());
    auto recent = client->GetRecent(*id);
    ASSERT_TRUE(recent.ok());
    EXPECT_EQ(recent->version, 2u);
    EXPECT_EQ(recent->size, big.size() + small.size());
    checked = true;
  });
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace blobseer
