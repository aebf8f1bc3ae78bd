// Version lifecycle subsystem (docs/lifecycle.md): retention policy
// evaluation, the vmanager lifecycle RPC surface (set/get retention,
// version listing, discard rules), end-to-end mark-and-sweep GC on an
// embedded cluster, content-hash page dedup, and the interaction of the
// two — a deduplicated page shared across blobs must survive until the
// last version referencing it is discarded and swept.
#include <gtest/gtest.h>

#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "core/cluster.h"
#include "lifecycle/dedup.h"
#include "lifecycle/gc_sweeper.h"
#include "lifecycle/retention.h"
#include "reference_blob.h"
#include "vmanager/client.h"

namespace blobseer {
namespace {

using client::Blob;
using client::BlobClient;
using lifecycle::ExpiredVersions;
using lifecycle::RetentionPolicy;
using lifecycle::VersionFacts;
using testing::ReferenceBlob;
using testing::TestPayload;

// --- Retention policy evaluation (pure, no cluster) ------------------------

VersionFacts Published(Version v, uint64_t at_us, bool pinned = false) {
  return VersionFacts{v, at_us, /*published=*/true, /*discarded=*/false,
                      pinned};
}

TEST(RetentionTest, DisabledPolicyRetainsEverything) {
  std::vector<VersionFacts> facts;
  for (Version v = 1; v <= 10; v++) facts.push_back(Published(v, v));
  EXPECT_TRUE(ExpiredVersions(RetentionPolicy{}, facts, 1000).empty());
}

TEST(RetentionTest, KeepLastKExpiresOldestFirst) {
  std::vector<VersionFacts> facts;
  for (Version v = 1; v <= 6; v++) facts.push_back(Published(v, v));
  auto expired = ExpiredVersions(RetentionPolicy{/*keep_last_k=*/3, 0},
                                 facts, 1000);
  EXPECT_EQ(expired, (std::vector<Version>{1, 2, 3}));
}

TEST(RetentionTest, AgeRuleKeepsYoungSnapshots) {
  // Assigned at 100, 200, ..., 600; at now = 650 with a 300 us window the
  // versions younger than 300 us (assigned after 350) survive.
  std::vector<VersionFacts> facts;
  for (Version v = 1; v <= 6; v++) facts.push_back(Published(v, 100 * v));
  auto expired = ExpiredVersions(RetentionPolicy{0, /*younger_than=*/300},
                                 facts, 650);
  EXPECT_EQ(expired, (std::vector<Version>{1, 2, 3}));
}

TEST(RetentionTest, EitherRuleProtects) {
  // keep_last_k = 1 alone would expire v1..v3; the age rule additionally
  // protects v3 (assigned at 300, now 350, window 100).
  std::vector<VersionFacts> facts;
  for (Version v = 1; v <= 4; v++) facts.push_back(Published(v, 100 * v));
  auto expired =
      ExpiredVersions(RetentionPolicy{/*keep_last_k=*/1, 100}, facts, 350);
  EXPECT_EQ(expired, (std::vector<Version>{1, 2}));
}

TEST(RetentionTest, PinnedVersionsNeverExpireButConsumeRank) {
  // v2 is a branch point: it must survive an aggressive policy, and it
  // still counts toward "the newest k readable snapshots".
  std::vector<VersionFacts> facts = {
      Published(1, 1), Published(2, 2, /*pinned=*/true), Published(3, 3),
      Published(4, 4, /*pinned=*/true)};
  auto expired =
      ExpiredVersions(RetentionPolicy{/*keep_last_k=*/2, 0}, facts, 1000);
  // Newest two readable are v4 (pinned anyway) and v3; v2 is pinned.
  EXPECT_EQ(expired, (std::vector<Version>{1}));
}

TEST(RetentionTest, UnpublishedAndDiscardedAreNotCandidates) {
  std::vector<VersionFacts> facts;
  facts.push_back(Published(1, 1));
  VersionFacts unpublished{2, 2, false, false, false};
  VersionFacts discarded{3, 3, true, true, false};
  facts.push_back(unpublished);
  facts.push_back(discarded);
  facts.push_back(Published(4, 4));
  auto expired =
      ExpiredVersions(RetentionPolicy{/*keep_last_k=*/1, 0}, facts, 1000);
  // v4 is rank 1; v3 discarded and v2 unpublished are skipped entirely.
  EXPECT_EQ(expired, (std::vector<Version>{1}));
}

// --- vmanager lifecycle RPC surface ----------------------------------------

class LifecycleRpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::ClusterOptions opts;
    opts.num_providers = 4;
    opts.num_meta = 2;
    auto c = core::EmbeddedCluster::Start(opts);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    cluster_ = std::move(*c);
    auto cl = cluster_->NewClient();
    ASSERT_TRUE(cl.ok());
    client_ = std::move(*cl);
    vm_ = std::make_unique<vmanager::VersionManagerClient>(
        cluster_->transport(), cluster_->vmanager_address());
  }

  std::unique_ptr<core::EmbeddedCluster> cluster_;
  std::unique_ptr<BlobClient> client_;
  std::unique_ptr<vmanager::VersionManagerClient> vm_;
};

TEST_F(LifecycleRpcTest, RetentionRoundTrip) {
  auto id = client_->Create(4096);
  ASSERT_TRUE(id.ok());

  // Fresh blobs carry the disabled policy.
  auto got = vm_->GetRetentionAsync(*id).Wait();
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->enabled());

  RetentionPolicy policy{/*keep_last_k=*/4, /*keep_younger_than_us=*/5000};
  ASSERT_TRUE(vm_->SetRetentionAsync(*id, policy).Wait().ok());
  got = vm_->GetRetentionAsync(*id).Wait();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, policy);

  EXPECT_TRUE(
      vm_->SetRetentionAsync(12345, policy).Wait().status().IsNotFound());
  EXPECT_TRUE(vm_->GetRetentionAsync(12345).Wait().status().IsNotFound());
}

TEST_F(LifecycleRpcTest, ListVersionsReportsLifecycleFacts) {
  auto id = client_->Create(4096);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(blob.AppendSync(TestPayload(i, 4096)).ok());
  }

  auto versions = vm_->ListVersionsAsync(*id).Wait();
  ASSERT_TRUE(versions.ok());
  ASSERT_EQ(versions->size(), 3u);
  for (size_t i = 0; i < versions->size(); i++) {
    const auto& info = (*versions)[i];
    EXPECT_EQ(info.version, i + 1);
    EXPECT_EQ(info.size, 4096 * (i + 1));
    EXPECT_TRUE(info.published);
    EXPECT_FALSE(info.discarded);
    // Only the latest published snapshot is pinned here.
    EXPECT_EQ(info.pinned, i + 1 == versions->size()) << "v" << i + 1;
  }

  auto blobs = vm_->ListBlobsAsync().Wait();
  ASSERT_TRUE(blobs.ok());
  ASSERT_EQ(blobs->size(), 1u);
  EXPECT_EQ((*blobs)[0], *id);
}

TEST_F(LifecycleRpcTest, DiscardRules) {
  auto id = client_->Create(4096);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(blob.AppendSync(TestPayload(i, 4096)).ok());
  }

  // The latest published snapshot is pinned; version 0 is never owned.
  EXPECT_TRUE(
      vm_->DiscardVersionAsync(*id, 3).Wait().status().IsFailedPrecondition());
  EXPECT_TRUE(
      vm_->DiscardVersionAsync(*id, 0).Wait().status().IsFailedPrecondition());
  EXPECT_TRUE(vm_->DiscardVersionAsync(*id, 99).Wait().status().IsNotFound());

  ASSERT_TRUE(vm_->DiscardVersionAsync(*id, 1).Wait().ok());
  EXPECT_TRUE(vm_->DiscardVersionAsync(*id, 1).Wait().ok());  // idempotent

  // Discarded snapshots stop being readable immediately (before any GC
  // pass): size queries and reads observe NotFound.
  EXPECT_TRUE(vm_->GetSizeAsync(*id, 1).Wait().status().IsNotFound());
  std::string out;
  EXPECT_TRUE(blob.Read(1, 0, 4096, &out).IsNotFound());
  // v2 still reads the pages v1 appended: discard hides the snapshot, the
  // shared pages stay live through the surviving versions.
  ASSERT_TRUE(blob.Read(2, 0, 4096, &out).ok());
  EXPECT_EQ(out, TestPayload(0, 4096));

  auto st = vm_->GetStatsAsync().Wait();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->discarded, 1u);

  auto versions = vm_->ListVersionsAsync(*id).Wait();
  ASSERT_TRUE(versions.ok());
  EXPECT_TRUE((*versions)[0].discarded);
  EXPECT_FALSE((*versions)[1].discarded);
}

TEST_F(LifecycleRpcTest, BranchPointIsPinnedAgainstDiscard) {
  auto id = client_->Create(4096);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(blob.AppendSync(TestPayload(i, 4096)).ok());
  }
  auto branch = blob.Branch(2);
  ASSERT_TRUE(branch.ok());

  EXPECT_TRUE(
      vm_->DiscardVersionAsync(*id, 2).Wait().status().IsFailedPrecondition());
  ASSERT_TRUE(vm_->DiscardVersionAsync(*id, 1).Wait().ok());

  // The child blob reads its inherited history through the branch point.
  std::string out;
  ASSERT_TRUE(branch->Read(2, 0, 2 * 4096, &out).ok());
  EXPECT_EQ(out, TestPayload(0, 4096) + TestPayload(1, 4096));
}

// --- End-to-end GC on the embedded cluster ---------------------------------

// Hosts a sweeper on the cluster's provider manager with the loop disabled;
// tests drive RunOnePass deterministically.
lifecycle::GcSweeper* HostSweeper(core::EmbeddedCluster* cluster,
                                  size_t max_sweep = 4096) {
  lifecycle::GcOptions go;
  go.interval_us = 0;  // no background loop; tests call RunOnePass
  go.max_sweep_per_pass = max_sweep;
  cluster->pmanager().StartGcSweeper(
      /*executor=*/nullptr, RealClock::Default(), cluster->transport(),
      cluster->vmanager_address(), cluster->dht_addresses(),
      dht::DhtClientOptions{}, go);
  return cluster->pmanager().gc_sweeper();
}

class LifecycleGcTest : public ::testing::Test {
 protected:
  void StartCluster(client::ClientOptions copts = {}) {
    core::ClusterOptions opts;
    opts.num_providers = 4;
    opts.num_meta = 2;
    auto c = core::EmbeddedCluster::Start(opts);
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    cluster_ = std::move(*c);
    auto cl = cluster_->NewClient(copts);
    ASSERT_TRUE(cl.ok());
    client_ = std::move(*cl);
    vm_ = std::make_unique<vmanager::VersionManagerClient>(
        cluster_->transport(), cluster_->vmanager_address());
  }

  uint64_t ProviderPages() { return cluster_->TotalProviderUsage().pages; }

  std::unique_ptr<core::EmbeddedCluster> cluster_;
  std::unique_ptr<BlobClient> client_;
  std::unique_ptr<vmanager::VersionManagerClient> vm_;
};

TEST_F(LifecycleGcTest, RetentionDrivenSweepReclaimsOverwrittenVersions) {
  StartCluster();
  constexpr uint64_t kPage = 4096;
  constexpr size_t kPagesPerVersion = 4;
  constexpr size_t kVersions = 8;

  auto id = client_->Create(kPage);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ReferenceBlob ref;
  // Full overwrites: every version replaces all four pages, so expired
  // versions own garbage pages that only GC can reclaim.
  for (size_t i = 0; i < kVersions; i++) {
    std::string payload = TestPayload(i, kPagesPerVersion * kPage);
    ASSERT_TRUE(blob.WriteSync(payload, 0).ok());
    ref.ApplyWrite(payload, 0);
  }
  EXPECT_EQ(ProviderPages(), kVersions * kPagesPerVersion);

  ASSERT_TRUE(vm_->SetRetentionAsync(*id, RetentionPolicy{/*keep_last_k=*/2, 0})
                  .Wait()
                  .ok());
  lifecycle::GcSweeper* gc = HostSweeper(cluster_.get());
  ASSERT_TRUE(gc->RunOnePass(RealClock::Default()->NowMicros()).ok());

  // Six versions expired; only the last two keep their pages.
  EXPECT_EQ(ProviderPages(), 2 * kPagesPerVersion);
  auto stats = gc->GetStats();
  EXPECT_EQ(stats.versions_discarded, kVersions - 2);
  EXPECT_EQ(stats.versions_retired, kVersions - 2);
  EXPECT_EQ(stats.pages_swept, (kVersions - 2) * kPagesPerVersion);
  EXPECT_GT(stats.nodes_retired, 0u);
  EXPECT_EQ(stats.errors, 0u);

  // Retained versions read back exactly; expired ones are NotFound.
  std::string out;
  for (Version v = kVersions - 1; v <= kVersions; v++) {
    ASSERT_TRUE(blob.Read(v, 0, ref.Size(v), &out).ok()) << "v" << v;
    EXPECT_EQ(out, ref.Contents(v)) << "v" << v;
  }
  for (Version v = 1; v <= kVersions - 2; v++) {
    EXPECT_TRUE(blob.Read(v, 0, kPage, &out).IsNotFound()) << "v" << v;
  }

  // A second pass finds nothing new: the sweep is idempotent.
  ASSERT_TRUE(gc->RunOnePass(RealClock::Default()->NowMicros()).ok());
  auto again = gc->GetStats();
  EXPECT_EQ(again.versions_discarded, stats.versions_discarded);
  EXPECT_EQ(again.pages_swept, stats.pages_swept);
  EXPECT_EQ(ProviderPages(), 2 * kPagesPerVersion);
}

TEST_F(LifecycleGcTest, SweepBudgetTruncatesButConverges) {
  StartCluster();
  constexpr uint64_t kPage = 4096;
  auto id = client_->Create(kPage);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  for (size_t i = 0; i < 6; i++) {
    ASSERT_TRUE(blob.WriteSync(TestPayload(i, 4 * kPage), 0).ok());
  }
  ASSERT_TRUE(vm_->SetRetentionAsync(*id, RetentionPolicy{/*keep_last_k=*/1, 0})
                  .Wait()
                  .ok());

  // A budget of 3 pages per pass needs several passes for 20 garbage pages.
  lifecycle::GcSweeper* gc = HostSweeper(cluster_.get(), /*max_sweep=*/3);
  for (int pass = 0; pass < 16 && ProviderPages() > 4; pass++) {
    ASSERT_TRUE(gc->RunOnePass(RealClock::Default()->NowMicros()).ok());
  }
  EXPECT_EQ(ProviderPages(), 4u);
  auto stats = gc->GetStats();
  EXPECT_EQ(stats.pages_swept, 20u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST_F(LifecycleGcTest, AppendOnlyHistorySharesPagesWithLiveVersions) {
  StartCluster();
  constexpr uint64_t kPage = 4096;
  auto id = client_->Create(kPage);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  ReferenceBlob ref = [&] {
    ReferenceBlob r;
    for (size_t i = 0; i < 4; i++) {
      std::string payload = TestPayload(i, kPage);
      EXPECT_TRUE(blob.AppendSync(payload).ok());
      r.ApplyAppend(payload);
    }
    return r;
  }();
  EXPECT_EQ(ProviderPages(), 4u);

  // Expire all but the newest version. Appended pages are shared with the
  // surviving snapshot, so the mark phase must keep every one of them.
  ASSERT_TRUE(vm_->SetRetentionAsync(*id, RetentionPolicy{/*keep_last_k=*/1, 0})
                  .Wait()
                  .ok());
  lifecycle::GcSweeper* gc = HostSweeper(cluster_.get());
  ASSERT_TRUE(gc->RunOnePass(RealClock::Default()->NowMicros()).ok());

  EXPECT_EQ(ProviderPages(), 4u);
  auto stats = gc->GetStats();
  EXPECT_EQ(stats.pages_swept, 0u);
  EXPECT_EQ(stats.versions_discarded, 3u);

  std::string out;
  ASSERT_TRUE(blob.Read(4, 0, ref.Size(4), &out).ok());
  EXPECT_EQ(out, ref.Contents(4));
}

// --- Content-hash dedup ----------------------------------------------------

TEST(DedupHashTest, HashIsDeterministicAndSizeSensitive) {
  std::string a = TestPayload(1, 4096);
  std::string b = TestPayload(2, 4096);
  EXPECT_EQ(lifecycle::HashPage(a), lifecycle::HashPage(a));
  EXPECT_NE(lifecycle::HashPage(a), lifecycle::HashPage(b));
  EXPECT_NE(lifecycle::HashPage(a),
            lifecycle::HashPage(Slice(a).SubSlice(1, a.size() - 1)));
  EXPECT_TRUE(lifecycle::HashPage(a).valid());

  PageId pid{7, 3};
  auto decoded = lifecycle::DecodeHashTarget(lifecycle::EncodeHashTarget(pid));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, pid);
  EXPECT_FALSE(lifecycle::DecodeHashTarget("junk").ok());
}

TEST_F(LifecycleGcTest, DedupStoresIdenticalPagesOnce) {
  client::ClientOptions copts;
  copts.dedup = true;
  StartCluster(copts);
  constexpr uint64_t kPage = 4096;

  auto a = client_->Create(kPage);
  auto b = client_->Create(kPage);
  ASSERT_TRUE(a.ok() && b.ok());
  Blob blob_a(client_.get(), *a);
  Blob blob_b(client_.get(), *b);

  // The same four pages written to two blobs: stored once, adopted once.
  std::string payload;
  for (int i = 0; i < 4; i++) payload += TestPayload(i, kPage);
  ASSERT_TRUE(blob_a.WriteSync(payload, 0).ok());
  ASSERT_TRUE(blob_b.WriteSync(payload, 0).ok());

  EXPECT_EQ(ProviderPages(), 4u);
  EXPECT_EQ(client_->GetStats().dedup_hits, 4u);

  std::string out;
  ASSERT_TRUE(blob_a.Read(1, 0, payload.size(), &out).ok());
  EXPECT_EQ(out, payload);
  ASSERT_TRUE(blob_b.Read(1, 0, payload.size(), &out).ok());
  EXPECT_EQ(out, payload);
}

TEST_F(LifecycleGcTest, DedupOffStoresEveryCopy) {
  StartCluster();  // default options: dedup disabled
  constexpr uint64_t kPage = 4096;
  auto a = client_->Create(kPage);
  auto b = client_->Create(kPage);
  ASSERT_TRUE(a.ok() && b.ok());
  std::string payload = TestPayload(0, 4 * kPage);
  ASSERT_TRUE(Blob(client_.get(), *a).WriteSync(payload, 0).ok());
  ASSERT_TRUE(Blob(client_.get(), *b).WriteSync(payload, 0).ok());
  EXPECT_EQ(ProviderPages(), 8u);
  EXPECT_EQ(client_->GetStats().dedup_hits, 0u);
}

TEST_F(LifecycleGcTest, OverlappingIdenticalAppendsStoreOrAdoptEachPage) {
  // Two writers append the same bytes at once. A claimed page becomes
  // adoptable only when its writer's DHT wave lands, so the later writer
  // may find the claim without an entry and store its own copy: how many
  // pages it adopts depends on timing. Every page is stored or adopted,
  // never both, and both blobs read back their bytes.
  client::ClientOptions copts;
  copts.dedup = true;
  StartCluster(copts);
  auto other = cluster_->NewClient(copts);
  ASSERT_TRUE(other.ok());
  constexpr uint64_t kPage = 4096;
  constexpr int kRounds = 16;
  constexpr uint64_t kPagesPerAppend = 4;

  auto a = client_->Create(kPage);
  auto b = (*other)->Create(kPage);
  ASSERT_TRUE(a.ok() && b.ok());
  std::vector<std::string> payloads;
  for (int r = 0; r < kRounds; r++) {
    payloads.push_back(TestPayload(100 + r, kPagesPerAppend * kPage));
    Status sa, sb;
    std::thread ta([&] {
      sa = client_->AppendAsync(*a, payloads.back()).Wait().status();
    });
    std::thread tb([&] {
      sb = (*other)->AppendAsync(*b, payloads.back()).Wait().status();
    });
    ta.join();
    tb.join();
    ASSERT_TRUE(sa.ok()) << sa.ToString();
    ASSERT_TRUE(sb.ok()) << sb.ToString();
  }
  const uint64_t hits =
      client_->GetStats().dedup_hits + (*other)->GetStats().dedup_hits;
  RecordProperty("overlap_dedup_hits", static_cast<int>(hits));
  std::cout << "overlapping identical appends adopted " << hits << " of "
            << kRounds * kPagesPerAppend << " later-writer pages\n";
  EXPECT_EQ(ProviderPages() + hits, 2 * kRounds * kPagesPerAppend);

  std::string all;
  for (const std::string& p : payloads) all += p;
  for (BlobId id : {*a, *b}) {
    std::string out;
    ASSERT_TRUE(
        Blob(client_.get(), id).Read(kRounds, 0, all.size(), &out).ok());
    EXPECT_EQ(out, all);
  }

  // Once both waves landed, a later writer of the same bytes adopts them.
  const uint64_t before = client_->GetStats().dedup_hits;
  auto c = client_->Create(kPage);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(Blob(client_.get(), *c).WriteSync(payloads[0], 0).ok());
  EXPECT_EQ(client_->GetStats().dedup_hits, before + kPagesPerAppend);
}

TEST_F(LifecycleGcTest, SharedPageSurvivesUntilLastReferenceDiscarded) {
  client::ClientOptions copts;
  copts.dedup = true;
  StartCluster(copts);
  constexpr uint64_t kPage = 4096;

  auto a = client_->Create(kPage);
  auto b = client_->Create(kPage);
  ASSERT_TRUE(a.ok() && b.ok());
  Blob blob_a(client_.get(), *a);
  Blob blob_b(client_.get(), *b);

  // Both blobs' v1 share the same four pages (dedup adoption).
  std::string shared = TestPayload(42, 4 * kPage);
  ASSERT_TRUE(blob_a.WriteSync(shared, 0).ok());
  ASSERT_TRUE(blob_b.WriteSync(shared, 0).ok());
  EXPECT_EQ(ProviderPages(), 4u);

  // Overwrite both so v1 becomes expirable on each.
  ASSERT_TRUE(blob_a.WriteSync(TestPayload(1, 4 * kPage), 0).ok());
  ASSERT_TRUE(blob_b.WriteSync(TestPayload(2, 4 * kPage), 0).ok());
  EXPECT_EQ(ProviderPages(), 12u);

  lifecycle::GcSweeper* gc = HostSweeper(cluster_.get());

  // Expire only blob A's v1: the shared pages stay — blob B's v1 still
  // references them, and the mark phase walks every blob.
  ASSERT_TRUE(vm_->SetRetentionAsync(*a, RetentionPolicy{/*keep_last_k=*/1, 0})
                  .Wait()
                  .ok());
  ASSERT_TRUE(gc->RunOnePass(RealClock::Default()->NowMicros()).ok());
  EXPECT_EQ(ProviderPages(), 12u);
  EXPECT_EQ(gc->GetStats().pages_swept, 0u);
  std::string out;
  ASSERT_TRUE(blob_b.Read(1, 0, shared.size(), &out).ok());
  EXPECT_EQ(out, shared);

  // Expire blob B's v1 too: the last reference is gone, the shared pages
  // and their 'H' hash links are reclaimed.
  ASSERT_TRUE(vm_->SetRetentionAsync(*b, RetentionPolicy{/*keep_last_k=*/1, 0})
                  .Wait()
                  .ok());
  ASSERT_TRUE(gc->RunOnePass(RealClock::Default()->NowMicros()).ok());
  EXPECT_EQ(ProviderPages(), 8u);
  auto stats = gc->GetStats();
  EXPECT_EQ(stats.pages_swept, 4u);
  EXPECT_GT(stats.hash_links_removed, 0u);
  EXPECT_EQ(stats.errors, 0u);

  // A fresh write of the swept content must not resurrect the dead hash
  // link: it stores fresh pages and reads back correctly.
  ASSERT_TRUE(blob_a.WriteSync(shared, 0).ok());
  ASSERT_TRUE(blob_a.Read(3, 0, shared.size(), &out).ok());
  EXPECT_EQ(out, shared);
}

// --- pmanager stats surface ------------------------------------------------

TEST_F(LifecycleGcTest, PmStatsReportGcCounters) {
  StartCluster();
  constexpr uint64_t kPage = 4096;
  auto id = client_->Create(kPage);
  ASSERT_TRUE(id.ok());
  Blob blob(client_.get(), *id);
  for (size_t i = 0; i < 4; i++) {
    ASSERT_TRUE(blob.WriteSync(TestPayload(i, 2 * kPage), 0).ok());
  }
  ASSERT_TRUE(vm_->SetRetentionAsync(*id, RetentionPolicy{/*keep_last_k=*/1, 0})
                  .Wait()
                  .ok());
  lifecycle::GcSweeper* gc = HostSweeper(cluster_.get());
  ASSERT_TRUE(gc->RunOnePass(RealClock::Default()->NowMicros()).ok());

  pmanager::ProviderManagerClient pm(cluster_->transport(),
                                     cluster_->pmanager_address());
  auto st = pm.FetchStatsAsync().Wait();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->gc_passes, 1u);
  EXPECT_EQ(st->gc_versions_discarded, 3u);
  EXPECT_EQ(st->gc_versions_retired, 3u);
  EXPECT_EQ(st->gc_pages_swept, 6u);
}

}  // namespace
}  // namespace blobseer
