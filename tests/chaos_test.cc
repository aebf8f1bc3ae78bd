// Simnet chaos harness: deterministic fault-injection schedules driven by
// the virtual clock — provider kills and restarts (SimCluster::StopProvider
// / RestartProvider), scripted heartbeat loss without process death
// (drop-RPC injection in SimTransport) — with reference-model verification
// after every phase. Gates the write-availability contract of the
// heartbeat-driven failure detector + w-of-r write quorum
// (docs/liveness.md): with r=3, w=2 a provider killed mid-write-burst
// costs no update, allocation excludes it once it expires to dead, and the
// same kill at w=r fails cleanly (regression-gated both ways).
#include <gtest/gtest.h>

#include <set>

#include "core/cluster.h"
#include "core/sim_cluster.h"
#include "pmanager/client.h"
#include "pmanager/strategy.h"
#include "reference_blob.h"

namespace blobseer {
namespace {

using client::Blob;
using client::BlobClient;
using pmanager::Liveness;
using pmanager::ProviderRecord;
using testing::ReferenceBlob;
using testing::TestPayload;

constexpr uint64_t kMs = 1000;  // microseconds per millisecond

// Beat every 100 ms; suspect after half a second of silence, dead after
// 1.5 s. Kills are followed by bursts well inside the suspect window (the
// detector must NOT have noticed yet) and by clock jumps well past the
// dead threshold (it must have).
constexpr uint64_t kBeat = 100 * kMs;
constexpr uint64_t kSuspectAfter = 500 * kMs;
constexpr uint64_t kDeadAfter = 1500 * kMs;

core::SimClusterOptions ChaosOptions(size_t providers, uint32_t r,
                                     uint32_t w) {
  core::SimClusterOptions opts;
  opts.num_provider_nodes = providers;
  opts.page_store = "memory";  // serve real bytes, not the null store
  opts.replication = r;
  opts.write_quorum = w;
  opts.heartbeat_interval_us = kBeat;
  opts.suspect_after_us = kSuspectAfter;
  opts.dead_after_us = kDeadAfter;
  return opts;
}

/// Phase gate: every version of the blob must read back exactly as the
/// serial reference model says.
void VerifyReference(Blob* blob, const ReferenceBlob& ref,
                     const char* phase) {
  for (Version v = 1; v <= ref.latest(); v++) {
    std::string out;
    ASSERT_TRUE(blob->Read(v, 0, ref.Size(v), &out).ok())
        << phase << " v" << v;
    ASSERT_EQ(out, ref.Contents(v)) << phase << " v" << v;
  }
}

void AppendChecked(Blob* blob, ReferenceBlob* ref, uint64_t salt,
                   size_t bytes) {
  std::string payload = TestPayload(salt, bytes);
  ASSERT_TRUE(blob->AppendSync(payload).ok()) << "salt " << salt;
  ref->ApplyAppend(payload);
}

Liveness LivenessOf(core::SimCluster* cluster, ProviderId id) {
  for (const ProviderRecord& r : cluster->pmanager().Records()) {
    if (r.id == id) return r.liveness;
  }
  ADD_FAILURE() << "provider " << id << " not registered";
  return Liveness::kDead;
}

/// Ids appearing anywhere in a fresh allocation of `pages` r-sets.
std::set<ProviderId> AllocatedIds(core::SimCluster* cluster, uint32_t pages,
                                  uint32_t r) {
  pmanager::ProviderManagerClient pm(&cluster->transport(),
                                     cluster->pm_address());
  auto sets = pm.AllocateReplicatedAsync(pages, r).Wait(&cluster->executor());
  std::set<ProviderId> ids;
  if (!sets.ok()) {
    ADD_FAILURE() << "allocation failed: " << sets.status().ToString();
    return ids;
  }
  for (const auto& set : *sets) ids.insert(set.begin(), set.end());
  return ids;
}

// --- Acceptance scenario: kill mid-burst at w < r --------------------------

TEST(ChaosSimTest, KillMidBurstSurvivesAtQuorumThenAllocationExcludesDead) {
  simnet::SimScheduler sched;
  bool checked = false;
  sched.Run([&] {
    core::SimCluster cluster(&sched, ChaosOptions(5, /*r=*/3, /*w=*/2));
    auto client = cluster.NewClient();
    auto id = client->Create(4096);
    ASSERT_TRUE(id.ok());
    Blob blob(client.get(), *id);
    ReferenceBlob ref;

    // Healthy warm-up.
    for (int i = 0; i < 3; i++)
      AppendChecked(&blob, &ref, i, 4096 * 4);
    VerifyReference(&blob, ref, "healthy");

    // Kill a provider, then burst before the detector can have noticed:
    // the dead provider is still handed out by allocation, its puts fail,
    // and the w=2-of-3 quorum must absorb every one of them.
    const size_t victim = 2;
    const ProviderId victim_id = 2;
    ASSERT_TRUE(cluster.StopProvider(victim).ok());
    EXPECT_EQ(LivenessOf(&cluster, victim_id), Liveness::kAlive)
        << "burst must race the detector";
    for (int i = 0; i < 6; i++)
      AppendChecked(&blob, &ref, 100 + i, 4096 * 5);
    EXPECT_GT(client->GetStats().degraded_writes, 0u)
        << "some replica set must have named the dead provider";
    VerifyReference(&blob, ref, "mid-burst kill");

    // Let the heartbeat silence expire to dead: a subsequent allocation
    // must exclude the victim — before it re-registers.
    cluster.clock().SleepForMicros(kDeadAfter + 2 * kBeat);
    EXPECT_EQ(LivenessOf(&cluster, victim_id), Liveness::kDead);
    std::set<ProviderId> allocated = AllocatedIds(&cluster, 20, 3);
    EXPECT_FALSE(allocated.empty());
    EXPECT_EQ(allocated.count(victim_id), 0u);
    // Writes are clean again (no dead provider in any set).
    uint64_t degraded_before = client->GetStats().degraded_writes;
    for (int i = 0; i < 3; i++)
      AppendChecked(&blob, &ref, 200 + i, 4096 * 4);
    EXPECT_EQ(client->GetStats().degraded_writes, degraded_before);
    VerifyReference(&blob, ref, "post-expiry");

    // Restart: re-registration flips the record alive immediately and the
    // provider rejoins the rotation (its in-memory store survived, like a
    // durable disk).
    ASSERT_TRUE(cluster.RestartProvider(victim).ok());
    EXPECT_EQ(LivenessOf(&cluster, victim_id), Liveness::kAlive);
    std::set<ProviderId> rejoined = AllocatedIds(&cluster, 20, 3);
    EXPECT_EQ(rejoined.count(victim_id), 1u);
    for (int i = 0; i < 3; i++)
      AppendChecked(&blob, &ref, 300 + i, 4096 * 4);
    VerifyReference(&blob, ref, "post-restart");
    checked = true;
  });
  EXPECT_TRUE(checked);
}

// --- Regression gate the other way: the same kill at w = r must fail ------

TEST(ChaosSimTest, KillMidBurstAtFullQuorumFailsCleanlyThenRoutesAround) {
  simnet::SimScheduler sched;
  bool checked = false;
  sched.Run([&] {
    // write_quorum = r: every replica must ack, the pre-quorum behaviour.
    core::SimCluster cluster(&sched, ChaosOptions(5, /*r=*/3, /*w=*/3));
    auto client = cluster.NewClient();
    auto id = client->Create(4096);
    ASSERT_TRUE(id.ok());
    Blob blob(client.get(), *id);
    ReferenceBlob ref;
    for (int i = 0; i < 3; i++)
      AppendChecked(&blob, &ref, i, 4096 * 4);

    ASSERT_TRUE(cluster.StopProvider(1).ok());
    EXPECT_EQ(LivenessOf(&cluster, 1), Liveness::kAlive);
    // 10 pages over 5 providers at r=3: replica sets certainly name the
    // dead provider, and with w=r one failed put sinks the update.
    auto failed = blob.Append(TestPayload(999, 4096 * 10));
    ASSERT_FALSE(failed.ok())
        << "w=r write with a dead replica must not succeed";
    VerifyReference(&blob, ref, "clean failure");

    // Once the detector expires the victim, allocation routes around it
    // and w=r writes work again on the 4 survivors.
    cluster.clock().SleepForMicros(kDeadAfter + 2 * kBeat);
    EXPECT_EQ(LivenessOf(&cluster, 1), Liveness::kDead);
    for (int i = 0; i < 3; i++)
      AppendChecked(&blob, &ref, 500 + i, 4096 * 4);
    VerifyReference(&blob, ref, "routed around");
    checked = true;
  });
  EXPECT_TRUE(checked);
}

// --- Scripted heartbeat loss: suspect, flap back, fallback ----------------

TEST(ChaosSimTest, SuspectFlapsBackAliveWithoutReregistration) {
  simnet::SimScheduler sched;
  bool checked = false;
  sched.Run([&] {
    core::SimCluster cluster(&sched, ChaosOptions(5, /*r=*/2, /*w=*/2));
    auto client = cluster.NewClient();
    auto id = client->Create(4096);
    ASSERT_TRUE(id.ok());
    Blob blob(client.get(), *id);
    ReferenceBlob ref;
    AppendChecked(&blob, &ref, 1, 4096 * 3);

    // Drop the provider's control-plane RPCs; its process (and the data
    // path) stays up. After the suspect window it must be excluded from
    // allocation while 4 alive providers cover r=2.
    const size_t flappy = 3;
    const ProviderId flappy_id = 3;
    cluster.SetHeartbeatLoss(flappy, true);
    cluster.clock().SleepForMicros(kSuspectAfter + 2 * kBeat);
    EXPECT_EQ(LivenessOf(&cluster, flappy_id), Liveness::kSuspect);
    EXPECT_GT(cluster.provider(flappy).heartbeat_failures(), 0u);
    std::set<ProviderId> allocated = AllocatedIds(&cluster, 20, 2);
    EXPECT_EQ(allocated.count(flappy_id), 0u);
    AppendChecked(&blob, &ref, 2, 4096 * 4);
    VerifyReference(&blob, ref, "suspect excluded");

    // Heartbeats resume before the dead threshold: the record flips back
    // to alive on the next beat — no re-registration, same id — and the
    // provider rejoins the rotation.
    cluster.SetHeartbeatLoss(flappy, false);
    cluster.clock().SleepForMicros(2 * kBeat);
    EXPECT_EQ(LivenessOf(&cluster, flappy_id), Liveness::kAlive);
    std::set<ProviderId> rejoined = AllocatedIds(&cluster, 20, 2);
    EXPECT_EQ(rejoined.count(flappy_id), 1u);
    AppendChecked(&blob, &ref, 3, 4096 * 4);
    VerifyReference(&blob, ref, "flapped back");
    checked = true;
  });
  EXPECT_TRUE(checked);
}

TEST(ChaosSimTest, SuspectFallbackKeepsWritesAliveWhenLiveBelowR) {
  simnet::SimScheduler sched;
  bool checked = false;
  sched.Run([&] {
    core::SimCluster cluster(&sched, ChaosOptions(4, /*r=*/3, /*w=*/3));
    auto client = cluster.NewClient();
    auto id = client->Create(4096);
    ASSERT_TRUE(id.ok());
    Blob blob(client.get(), *id);
    ReferenceBlob ref;
    AppendChecked(&blob, &ref, 1, 4096 * 3);

    // Two of four providers go heartbeat-silent (processes still up). Live
    // capacity (2) < r (3): allocation must fall back to suspects instead
    // of failing, and the writes land because only the control plane was
    // partitioned.
    cluster.SetHeartbeatLoss(2, true);
    cluster.SetHeartbeatLoss(3, true);
    cluster.clock().SleepForMicros(kSuspectAfter + 2 * kBeat);
    EXPECT_EQ(LivenessOf(&cluster, 2), Liveness::kSuspect);
    EXPECT_EQ(LivenessOf(&cluster, 3), Liveness::kSuspect);
    std::set<ProviderId> allocated = AllocatedIds(&cluster, 10, 3);
    EXPECT_TRUE(allocated.count(2) == 1 || allocated.count(3) == 1)
        << "live capacity < r must pull suspects into the pool";
    for (int i = 0; i < 3; i++)
      AppendChecked(&blob, &ref, 10 + i, 4096 * 4);
    VerifyReference(&blob, ref, "suspect fallback");
    checked = true;
  });
  EXPECT_TRUE(checked);
}

// --- Writes fail cleanly when too few replicas can ack --------------------

TEST(ChaosSimTest, WritesFailCleanlyWhenLiveBelowW) {
  simnet::SimScheduler sched;
  bool checked = false;
  sched.Run([&] {
    core::SimCluster cluster(&sched, ChaosOptions(4, /*r=*/3, /*w=*/2));
    auto client = cluster.NewClient();
    auto id = client->Create(4096);
    ASSERT_TRUE(id.ok());
    Blob blob(client.get(), *id);
    ReferenceBlob ref;
    for (int i = 0; i < 2; i++)
      AppendChecked(&blob, &ref, i, 4096 * 4);

    // Phase 1 — before expiry: the detector still hands out the two dead
    // providers, so replica sets naming both get one ack < w and the
    // update must fail at the quorum, cleanly.
    ASSERT_TRUE(cluster.StopProvider(1).ok());
    ASSERT_TRUE(cluster.StopProvider(2).ok());
    bool any_failed = false;
    for (int i = 0; i < 4 && !any_failed; i++) {
      std::string payload = TestPayload(600 + i, 4096 * 6);
      auto v = blob.Append(payload);
      if (v.ok()) {
        ref.ApplyAppend(payload);
      } else {
        any_failed = true;
      }
    }
    EXPECT_TRUE(any_failed)
        << "a replica set naming both dead providers must miss w=2";
    VerifyReference(&blob, ref, "quorum failure");

    // Phase 2 — after expiry: 2 alive + 0 suspect < r=3, so allocation
    // itself refuses with Unavailable (no sloppy write below the replica
    // target) — still a clean failure, and published data stays readable
    // (every r=3 set over 4 providers contains a survivor).
    cluster.clock().SleepForMicros(kDeadAfter + 2 * kBeat);
    EXPECT_EQ(LivenessOf(&cluster, 1), Liveness::kDead);
    EXPECT_EQ(LivenessOf(&cluster, 2), Liveness::kDead);
    auto v = blob.Append(TestPayload(700, 4096 * 2));
    EXPECT_TRUE(v.status().IsUnavailable()) << v.status().ToString();
    VerifyReference(&blob, ref, "allocation refusal");

    // Restarting one victim restores r-coverage; writes flow again.
    ASSERT_TRUE(cluster.RestartProvider(1).ok());
    EXPECT_EQ(LivenessOf(&cluster, 1), Liveness::kAlive);
    for (int i = 0; i < 2; i++)
      AppendChecked(&blob, &ref, 800 + i, 4096 * 4);
    VerifyReference(&blob, ref, "restored");
    checked = true;
  });
  EXPECT_TRUE(checked);
}

// --- Real-clock smoke: the same detector on the embedded cluster ----------

TEST(ChaosEmbeddedTest, RealClockHeartbeatsExpireAndRestartRejoins) {
  core::ClusterOptions opts;
  opts.num_providers = 3;
  opts.num_meta = 2;
  opts.replication = 2;
  opts.heartbeat_interval_us = 10 * kMs;
  opts.suspect_after_us = 100 * kMs;
  opts.dead_after_us = 250 * kMs;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->NewClient();
  ASSERT_TRUE(client.ok());
  auto id = (*client)->Create(64);
  ASSERT_TRUE(id.ok());
  Blob blob(client->get(), *id);
  ReferenceBlob ref;
  std::string base = TestPayload(0, 64 * 6);
  ASSERT_TRUE(blob.AppendSync(base).ok());
  ref.ApplyAppend(base);

  ASSERT_TRUE((*cluster)->StopProvider(0).ok());
  // Poll (bounded) until the detector declares the victim dead; the two
  // survivors must keep beating through it all.
  auto liveness_of = [&](ProviderId pid) {
    for (const ProviderRecord& r : (*cluster)->pmanager().Records()) {
      if (r.id == pid) return r.liveness;
    }
    return Liveness::kDead;
  };
  Stopwatch deadline;
  while (deadline.ElapsedSeconds() < 10.0 &&
         liveness_of(0) != Liveness::kDead) {
    RealClock::Default()->SleepForMicros(10 * kMs);
  }
  ASSERT_EQ(liveness_of(0), Liveness::kDead);

  // Allocation now routes around the corpse: full-quorum r=2 writes on
  // the two survivors.
  std::string tail = TestPayload(1, 64 * 6);
  ASSERT_TRUE(blob.AppendSync(tail).ok());
  ref.ApplyAppend(tail);

  // Restart and rejoin. A fresh client is used for the post-restart write:
  // the old one may hold cached channels to the pre-restart endpoint
  // (real transports reconnect lazily; see docs/liveness.md).
  ASSERT_TRUE((*cluster)->RestartProvider(0).ok());
  Stopwatch rejoin;
  while (rejoin.ElapsedSeconds() < 10.0 &&
         liveness_of(0) != Liveness::kAlive) {
    RealClock::Default()->SleepForMicros(10 * kMs);
  }
  ASSERT_EQ(liveness_of(0), Liveness::kAlive);
  auto client2 = (*cluster)->NewClient();
  ASSERT_TRUE(client2.ok());
  Blob blob2(client2->get(), *id);
  std::string more = TestPayload(2, 64 * 6);
  ASSERT_TRUE(blob2.AppendSync(more).ok());
  ref.ApplyAppend(more);
  VerifyReference(&blob2, ref, "real-clock restart");

  uint64_t beats = (*cluster)->provider(1).heartbeats_sent();
  EXPECT_GT(beats, 0u);
}

}  // namespace
}  // namespace blobseer
