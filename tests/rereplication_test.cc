// Detector-triggered re-replication under churn, on both harnesses: kill a
// provider and the rebuilder restores r on different live providers (virtual
// time and real clock); a joining provider picks up existing load; a
// decommissioned provider drains with zero failed reads; pre-v3 metadata
// reads seed location entries; and a client whose location cache went stale
// behind a rebuilder move refreshes instead of failing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/sim_cluster.h"
#include "dht/client.h"
#include "locator/location.h"
#include "meta/node.h"
#include "pmanager/client.h"
#include "reference_blob.h"

namespace blobseer {
namespace {

using client::Blob;
using client::BlobClient;
using testing::ReferenceBlob;
using testing::TestPayload;

constexpr uint64_t kMs = 1000;  // microseconds per millisecond

// Detector thresholds shared by the sim scenarios (see chaos_test.cc).
constexpr uint64_t kBeat = 100 * kMs;
constexpr uint64_t kSuspectAfter = 500 * kMs;
constexpr uint64_t kDeadAfter = 1500 * kMs;
constexpr uint64_t kRebuildEvery = 200 * kMs;

core::SimClusterOptions ChurnOptions(size_t providers, uint32_t r,
                                     uint32_t w) {
  core::SimClusterOptions opts;
  opts.num_provider_nodes = providers;
  opts.page_store = "memory";
  opts.replication = r;
  opts.write_quorum = w;
  opts.heartbeat_interval_us = kBeat;
  opts.suspect_after_us = kSuspectAfter;
  opts.dead_after_us = kDeadAfter;
  opts.rebuild_interval_us = kRebuildEvery;
  return opts;
}

ReferenceBlob FillBlob(Blob* blob, size_t versions, size_t bytes_per_append) {
  ReferenceBlob ref;
  for (size_t i = 0; i < versions; i++) {
    std::string payload = TestPayload(static_cast<int>(i), bytes_per_append);
    EXPECT_TRUE(blob->AppendSync(payload).ok());
    ref.ApplyAppend(payload);
  }
  return ref;
}

void ExpectAllVersionsReadable(Blob* blob, const ReferenceBlob& ref) {
  for (Version v = 1; v <= ref.latest(); v++) {
    std::string out;
    ASSERT_TRUE(blob->Read(v, 0, ref.Size(v), &out).ok()) << "v" << v;
    ASSERT_EQ(out, ref.Contents(v)) << "v" << v;
  }
}

/// Every location entry must list exactly `r` providers, none of them
/// `excluded` — the shape the rebuilder is contracted to restore.
void ExpectLocationsHealed(locator::PageLocationTable* table, uint32_t r,
                           ProviderId excluded) {
  auto pages = table->Snapshot();
  ASSERT_FALSE(pages.empty());
  for (const auto& [pid, entry] : pages) {
    EXPECT_EQ(entry.providers.size(), r) << pid.ToString();
    for (ProviderId m : entry.providers) {
      EXPECT_NE(m, excluded) << pid.ToString();
    }
  }
}

// --- Simnet: kill -> detector -> re-replication restores r -----------------

TEST(RereplicationSimTest, KillRestoresReplicationOnDifferentProviders) {
  simnet::SimScheduler sched;
  bool checked = false;
  sched.Run([&] {
    core::SimCluster cluster(&sched, ChurnOptions(5, /*r=*/3, /*w=*/2));
    auto client = cluster.NewClient();
    auto id = client->Create(4096);
    ASSERT_TRUE(id.ok());
    Blob blob(client.get(), *id);
    ReferenceBlob ref = FillBlob(&blob, 4, 4096 * 4);

    const size_t victim = 1;
    const ProviderId victim_id = cluster.provider_id(victim);
    ASSERT_TRUE(cluster.StopProvider(victim).ok());
    // Let the silence expire to dead; then the rebuilder has work to do.
    cluster.clock().SleepForMicros(kDeadAfter + 2 * kBeat);

    pmanager::ProviderManagerClient pm(&cluster.transport(),
                                       cluster.pm_address());
    bool healed = false;
    for (int i = 0; i < 200 && !healed; i++) {
      auto st = pm.FetchStatsAsync().Wait(&cluster.executor());
      ASSERT_TRUE(st.ok());
      healed = st->dead >= 1 && st->under_replicated == 0;
      if (!healed) cluster.clock().SleepForMicros(kRebuildEvery);
    }
    ASSERT_TRUE(healed) << "rebuilder never cleared the backlog";
    auto st = pm.FetchStatsAsync().Wait(&cluster.executor());
    ASSERT_TRUE(st.ok());
    EXPECT_GT(st->rebuilt_pages, 0u);
    ExpectLocationsHealed(cluster.pmanager().location_table(), 3, victim_id);

    // A fresh client resolves only the healed entries: every read is clean
    // on the first replica it tries — no failover, full r restored.
    auto reader = cluster.NewClient();
    Blob blob2(reader.get(), *id);
    ExpectAllVersionsReadable(&blob2, ref);
    EXPECT_EQ(reader->GetStats().failover_reads, 0u);
    checked = true;
  });
  EXPECT_TRUE(checked);
}

// --- Simnet: decommission drains with zero failed reads --------------------

TEST(RereplicationSimTest, DecommissionDrainsWithZeroFailedReads) {
  simnet::SimScheduler sched;
  bool checked = false;
  sched.Run([&] {
    core::SimCluster cluster(&sched, ChurnOptions(5, /*r=*/2, /*w=*/0));
    auto client = cluster.NewClient();
    auto id = client->Create(4096);
    ASSERT_TRUE(id.ok());
    Blob blob(client.get(), *id);
    ReferenceBlob ref = FillBlob(&blob, 3, 4096 * 5);

    const size_t victim = 2;
    auto d = cluster.Decommission(victim);
    ASSERT_TRUE(d.ok());
    for (int i = 0; i < 200 && !d->drained; i++) {
      cluster.clock().SleepForMicros(kRebuildEvery);
      d = cluster.Decommission(victim);  // idempotent drain poll
      ASSERT_TRUE(d.ok());
    }
    ASSERT_TRUE(d->drained) << d->remaining_pages << " pages left";
    ExpectLocationsHealed(cluster.pmanager().location_table(), 2,
                          cluster.provider_id(victim));

    // The provider is empty: retiring it costs no read a thing.
    ASSERT_TRUE(cluster.StopProvider(victim).ok());
    auto reader = cluster.NewClient();
    Blob blob2(reader.get(), *id);
    ExpectAllVersionsReadable(&blob2, ref);
    EXPECT_EQ(reader->GetStats().failover_reads, 0u);
    checked = true;
  });
  EXPECT_TRUE(checked);
}

// --- Simnet: stale location cache refreshes behind a rebuilder move --------

TEST(RereplicationSimTest, StaleLocationCacheRefreshesAfterMove) {
  simnet::SimScheduler sched;
  bool checked = false;
  sched.Run([&] {
    // r=1: once the rebuilder moves a page, the client's cached replica set
    // is completely dead wood — the read must re-resolve, not fail.
    core::SimClusterOptions opts = ChurnOptions(3, /*r=*/1, /*w=*/0);
    core::SimCluster cluster(&sched, opts);
    auto client = cluster.NewClient();
    auto id = client->Create(4096);
    ASSERT_TRUE(id.ok());
    Blob blob(client.get(), *id);
    ReferenceBlob ref = FillBlob(&blob, 1, 4096 * 2);
    ExpectAllVersionsReadable(&blob, ref);  // warm every cache

    // Drain provider 0 (pages round-robin from 0, so it holds page 0): the
    // rebuilder moves its pages elsewhere and deletes the vacated copies.
    auto d = cluster.Decommission(0);
    ASSERT_TRUE(d.ok());
    for (int i = 0; i < 200 && !d->drained; i++) {
      cluster.clock().SleepForMicros(kRebuildEvery);
      d = cluster.Decommission(0);
      ASSERT_TRUE(d.ok());
    }
    ASSERT_TRUE(d->drained);

    // Same client, stale cache: the first attempt lands on the vacated
    // provider, exhausts the cached set, re-resolves and succeeds.
    ExpectAllVersionsReadable(&blob, ref);
    EXPECT_GT(client->GetStats().location_refreshes, 0u);
    checked = true;
  });
  EXPECT_TRUE(checked);
}

// --- Real clock: the same self-healing contract on the embedded cluster ----

TEST(RereplicationEmbeddedTest, RealClockKillRestoresReplication) {
  core::ClusterOptions opts;
  opts.num_providers = 5;
  opts.num_meta = 2;
  opts.replication = 3;
  opts.write_quorum = 2;
  opts.heartbeat_interval_us = 10 * kMs;
  opts.suspect_after_us = 80 * kMs;
  opts.dead_after_us = 200 * kMs;
  opts.rebuild_interval_us = 30 * kMs;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->NewClient();
  ASSERT_TRUE(client.ok());
  auto id = (*client)->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client->get(), *id);
  ReferenceBlob ref = FillBlob(&blob, 3, 64 * 6);

  const size_t victim = 1;
  const ProviderId victim_id = (*cluster)->provider_id(victim);
  ASSERT_TRUE((*cluster)->StopProvider(victim).ok());

  // Poll (bounded) until the detector has fired AND the rebuilder cleared
  // the backlog: no location entry may still reference the corpse.
  locator::PageLocationTable* table = (*cluster)->pmanager().location_table();
  pmanager::ProviderManagerClient pm((*cluster)->transport(),
                                     (*cluster)->pmanager_address());
  Stopwatch deadline;
  bool healed = false;
  while (deadline.ElapsedSeconds() < 30.0 && !healed) {
    auto st = pm.FetchStatsAsync().Wait();
    ASSERT_TRUE(st.ok());
    healed = st->dead >= 1 && st->under_replicated == 0 &&
             table->CountOn(victim_id) == 0;
    if (!healed) RealClock::Default()->SleepForMicros(10 * kMs);
  }
  ASSERT_TRUE(healed) << "replication not restored within 30s";
  ExpectLocationsHealed(table, 3, victim_id);

  auto reader = (*cluster)->NewClient();
  ASSERT_TRUE(reader.ok());
  Blob blob2(reader->get(), *id);
  ExpectAllVersionsReadable(&blob2, ref);
  EXPECT_EQ((*reader)->GetStats().failover_reads, 0u);
}

TEST(RereplicationEmbeddedTest, JoinRebalancePullsPagesOntoNewProvider) {
  core::ClusterOptions opts;
  opts.num_providers = 3;
  opts.num_meta = 2;
  opts.replication = 2;
  opts.heartbeat_interval_us = 10 * kMs;
  opts.suspect_after_us = 100 * kMs;
  opts.dead_after_us = 300 * kMs;
  opts.rebuild_interval_us = 30 * kMs;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->NewClient();
  ASSERT_TRUE(client.ok());
  auto id = (*client)->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client->get(), *id);
  ReferenceBlob ref = FillBlob(&blob, 4, 64 * 8);

  auto joined = (*cluster)->AddProvider();
  ASSERT_TRUE(joined.ok());
  const ProviderId new_id = (*cluster)->provider_id(*joined);

  // The joiner starts empty; rebalance must migrate existing pages onto it.
  locator::PageLocationTable* table = (*cluster)->pmanager().location_table();
  Stopwatch deadline;
  while (deadline.ElapsedSeconds() < 30.0 && table->CountOn(new_id) == 0) {
    RealClock::Default()->SleepForMicros(10 * kMs);
  }
  EXPECT_GT(table->CountOn(new_id), 0u) << "no page migrated to the joiner";

  // Moves are invisible to correctness: everything still reads back.
  auto reader = (*cluster)->NewClient();
  ASSERT_TRUE(reader.ok());
  Blob blob2(reader->get(), *id);
  ExpectAllVersionsReadable(&blob2, ref);
}

}  // namespace
}  // namespace blobseer
