// Workload subsystem tests: spec parsing and validation, schedule
// determinism (same spec => byte-identical schedule, the property campaign
// artifacts depend on), schedule shape (creates before use, churn and flash
// crowds land where the spec says), histogram percentiles, and end-to-end
// runner campaigns on the embedded and simnet harnesses with
// reference-model-verified reads. A scale smoke drives SimCluster at 300
// providers through a kill wave to hold the line on the O(n) registration
// and teardown paths the 1000-provider campaigns need.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/cluster.h"
#include "core/sim_cluster.h"
#include "pmanager/client.h"
#include "workload/generator.h"
#include "workload/histogram.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace blobseer {
namespace {

using workload::GenerateSchedule;
using workload::LatencyHistogram;
using workload::Op;
using workload::OpKind;
using workload::RunnerOptions;
using workload::Schedule;
using workload::Timeline;
using workload::WorkloadReport;
using workload::WorkloadRunner;
using workload::WorkloadSpec;

// ---------------------------------------------------------------------------
// Spec.

TEST(WorkloadSpec, PresetsExpandAndValidate) {
  for (const auto& name : WorkloadSpec::PresetNames()) {
    auto spec = WorkloadSpec::Preset(name);
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_EQ(spec->scenario, name);
    EXPECT_TRUE(spec->Validate().ok()) << name;
  }
  EXPECT_FALSE(WorkloadSpec::Preset("no_such_preset").ok());
}

TEST(WorkloadSpec, ParseAppliesScenarioFirstThenOverrides) {
  auto spec = WorkloadSpec::Parse(
      "# comment\n"
      "ops = 99\n"
      "scenario = flash_crowd\n"   // selects preset even though it is late
      "zipf_theta = 1.25\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->scenario, "flash_crowd");
  EXPECT_EQ(spec->ops, 99u);                 // override survived the preset
  EXPECT_DOUBLE_EQ(spec->zipf_theta, 1.25);
  EXPECT_GT(spec->flash_crowd_ops, 0u);      // preset field kept
}

TEST(WorkloadSpec, RejectsBadInput) {
  EXPECT_FALSE(WorkloadSpec::Parse("bogus_key = 3\n").ok());
  EXPECT_FALSE(WorkloadSpec::Parse("ops = twelve\n").ok());
  EXPECT_FALSE(WorkloadSpec::Parse("psize = 3000\n").ok());  // not 2^k
  EXPECT_FALSE(WorkloadSpec::Parse("read_fraction = 1.5\n").ok());
  // Departures must leave at least one tenant.
  EXPECT_FALSE(WorkloadSpec::Parse("tenants = 2\ndepartures = 2\n").ok());
  WorkloadSpec spec;
  EXPECT_FALSE(spec.Set("read_pages_min", "9").ok() &&
               spec.Validate().ok());  // min > max
}

TEST(WorkloadSpec, ItemsRoundTrip) {
  auto spec = WorkloadSpec::Preset("tenant_churn");
  ASSERT_TRUE(spec.ok());
  WorkloadSpec rebuilt;
  for (const auto& [key, value] : spec->Items()) {
    ASSERT_TRUE(rebuilt.Set(key, value).ok()) << key << "=" << value;
  }
  EXPECT_EQ(rebuilt.DebugString(), spec->DebugString());
}

// ---------------------------------------------------------------------------
// Generator determinism + shape.

TEST(WorkloadGenerator, SameSpecSameSchedule) {
  for (const auto& name : WorkloadSpec::PresetNames()) {
    auto spec = WorkloadSpec::Preset(name);
    ASSERT_TRUE(spec.ok());
    spec->ops = 256;
    Schedule a = GenerateSchedule(*spec);
    Schedule b = GenerateSchedule(*spec);
    EXPECT_EQ(a.Canonical(), b.Canonical()) << name;
    EXPECT_EQ(a.Fingerprint(), b.Fingerprint()) << name;
  }
}

TEST(WorkloadGenerator, SeedChangesSchedule) {
  auto spec = WorkloadSpec::Preset("mixed");
  ASSERT_TRUE(spec.ok());
  Schedule a = GenerateSchedule(*spec);
  spec->seed++;
  Schedule b = GenerateSchedule(*spec);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(WorkloadGenerator, PayloadIsDeterministic) {
  EXPECT_EQ(workload::MakePayload(7, 64), workload::MakePayload(7, 64));
  EXPECT_NE(workload::MakePayload(7, 64), workload::MakePayload(8, 64));
  EXPECT_EQ(workload::MakePayload(7, 4096).size(), 4096u);
}

TEST(WorkloadGenerator, TenantsCreatedBeforeUseAndChurnApplied) {
  auto spec = WorkloadSpec::Preset("tenant_churn");
  ASSERT_TRUE(spec.ok());
  spec->ops = 300;
  Schedule s = GenerateSchedule(*spec);
  std::set<uint32_t> created;
  uint64_t creates = 0, departs = 0;
  for (const Op& op : s.ops) {
    if (op.kind == OpKind::kCreate) {
      creates++;
      created.insert(op.tenant);
      continue;
    }
    EXPECT_TRUE(created.count(op.tenant)) << op.DebugString();
    if (op.kind == OpKind::kDepart) departs++;
  }
  EXPECT_EQ(creates, spec->tenants + spec->arrivals);
  EXPECT_EQ(departs, spec->departures);
}

TEST(WorkloadGenerator, FlashCrowdBurstsOnTheHotTenant) {
  auto spec = WorkloadSpec::Preset("flash_crowd");
  ASSERT_TRUE(spec.ok());
  spec->ops = 200;
  spec->flash_crowd_ops = 32;
  Schedule s = GenerateSchedule(*spec);
  uint64_t flash = 0;
  std::set<uint32_t> targets;
  for (const Op& op : s.ops) {
    if (!op.flash) continue;
    flash++;
    targets.insert(op.tenant);
    EXPECT_EQ(op.kind, OpKind::kRead) << op.DebugString();
    EXPECT_EQ(op.version_lag, 0u) << op.DebugString();
  }
  EXPECT_EQ(flash, spec->flash_crowd_ops);
  EXPECT_EQ(targets.size(), 1u);  // everyone piles onto one blob
}

TEST(WorkloadGenerator, ZipfSkewsTowardHotTenantsAndMixHolds) {
  auto spec = WorkloadSpec::Preset("mixed");
  ASSERT_TRUE(spec.ok());
  spec->ops = 4000;
  spec->zipf_theta = 1.1;
  spec->read_fraction = 0.7;
  Schedule s = GenerateSchedule(*spec);
  std::map<uint32_t, uint64_t> per_tenant;
  uint64_t reads = 0, scheduled = 0;
  for (const Op& op : s.ops) {
    if (op.kind == OpKind::kCreate || op.kind == OpKind::kDepart) continue;
    scheduled++;
    per_tenant[op.tenant]++;
    if (op.kind == OpKind::kRead) reads++;
  }
  // Hottest tenant must dominate the coldest by a wide margin at theta=1.1.
  EXPECT_GT(per_tenant[0], 4 * per_tenant[uint32_t(spec->tenants - 1)] + 1);
  double read_frac = double(reads) / double(scheduled);
  EXPECT_NEAR(read_frac, 0.7, 0.05);
}

// ---------------------------------------------------------------------------
// Histogram.

TEST(WorkloadHistogram, ExactBelowSixteenAndPercentiles) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; v++) h.Record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min_us(), 1u);
  EXPECT_EQ(h.max_us(), 1000u);
  // ~6% relative bucket error above 16us.
  EXPECT_NEAR(double(h.Percentile(0.5)), 500.0, 500.0 * 0.07);
  EXPECT_NEAR(double(h.Percentile(0.99)), 990.0, 990.0 * 0.07);
  EXPECT_EQ(h.Percentile(1.0), 1000u);
}

TEST(WorkloadHistogram, MergeMatchesCombinedStream) {
  LatencyHistogram a, b, all;
  for (uint64_t v = 0; v < 500; v++) {
    a.Record(v * 3 + 1);
    all.Record(v * 3 + 1);
    b.Record(v * 7 + 2);
    all.Record(v * 7 + 2);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.max_us(), all.max_us());
  EXPECT_EQ(a.Percentile(0.5), all.Percentile(0.5));
  EXPECT_EQ(a.Percentile(0.999), all.Percentile(0.999));
}

TEST(WorkloadHistogram, TimelineBucketsAndMerge) {
  Timeline t;
  t.Init(1000, 1000);  // epoch 1000us, 1ms buckets
  t.Record(1500, 10);
  t.Record(2500, 20);
  t.Record(900, 5);  // before epoch: clamps to bucket 0
  Timeline u;
  u.Init(1000, 1000);
  u.Record(2600, 40);
  t.Merge(u);
  ASSERT_GE(t.ops().size(), 2u);
  EXPECT_EQ(t.ops()[0], 2u);
  EXPECT_EQ(t.bytes()[0], 15u);
  EXPECT_EQ(t.ops()[1], 2u);
  EXPECT_EQ(t.bytes()[1], 60u);
}

// ---------------------------------------------------------------------------
// End-to-end campaigns.

void ExpectCleanReport(const WorkloadReport& r) {
  EXPECT_EQ(r.verify_failures, 0u);
  EXPECT_EQ(r.read_errors, 0u);
  EXPECT_EQ(r.not_found_reads, 0u);
  EXPECT_EQ(r.write_errors, 0u);
  EXPECT_GT(r.verified_reads, 0u);
  EXPECT_GT(r.appends + r.writes, 0u);
  EXPECT_EQ(r.read_latency.count(), r.reads);
  EXPECT_EQ(r.write_latency.count(), r.appends + r.writes);
}

TEST(WorkloadRunnerE2E, MixedCampaignOnEmbeddedCluster) {
  core::ClusterOptions co;
  co.num_providers = 4;
  co.num_meta = 4;
  co.page_store = "memory";
  co.replication = 2;
  auto cluster = core::EmbeddedCluster::Start(co);
  ASSERT_TRUE(cluster.ok());
  auto client = (*cluster)->NewClient();
  ASSERT_TRUE(client.ok());

  auto spec = WorkloadSpec::Preset("mixed");
  ASSERT_TRUE(spec.ok());
  spec->tenants = 4;
  spec->initial_pages = 2;
  spec->ops = 96;
  Schedule schedule = GenerateSchedule(*spec);

  WorkloadRunner runner(client->get(), RealClock::Default());
  ASSERT_TRUE(runner.Run(*spec, schedule).ok());
  ExpectCleanReport(runner.report());
  EXPECT_EQ(runner.completed_ops(),
            runner.report().reads + runner.report().appends +
                runner.report().writes);

  uint64_t checked = 0;
  EXPECT_TRUE(runner.VerifyRetained(/*allow_not_found=*/false, &checked).ok());
  EXPECT_GT(checked, 0u);
}

TEST(WorkloadRunnerE2E, ChurnCampaignOnSimnet) {
  simnet::SimScheduler sched;
  bool checked_flag = false;
  sched.Run([&] {
    core::SimClusterOptions so;
    so.num_provider_nodes = 8;
    so.num_client_nodes = 1;
    so.page_store = "memory";
    so.replication = 2;
    core::SimCluster cluster(&sched, so);
    auto client = cluster.NewClient();

    auto spec = WorkloadSpec::Preset("tenant_churn");
    ASSERT_TRUE(spec.ok());
    spec->ops = 96;
    spec->initial_pages = 2;
    Schedule schedule = GenerateSchedule(*spec);

    WorkloadRunner runner(client.get(), &cluster.clock());
    uint32_t caller = sched.CurrentNode();
    sched.SetCurrentNode(cluster.client_node(0));
    auto task = sched.Spawn(
        [&] { ASSERT_TRUE(runner.Run(*spec, schedule).ok()); });
    sched.SetCurrentNode(caller);
    sched.Join(task);

    ExpectCleanReport(runner.report());
    EXPECT_GT(runner.report().departures, 0u);
    // Virtual-time latencies are deterministic and nonzero.
    EXPECT_GT(runner.report().read_latency.min_us(), 0u);

    uint64_t checked = 0;
    EXPECT_TRUE(
        runner.VerifyRetained(/*allow_not_found=*/false, &checked).ok());
    EXPECT_GT(checked, 0u);
    checked_flag = true;
  });
  EXPECT_TRUE(checked_flag);
}

// ---------------------------------------------------------------------------
// Scale smoke: the registration, heartbeat and wave-teardown paths must
// stay O(n)-ish or the 1000-provider campaigns stop fitting in CI. 300
// providers with a capped DHT ring and a 30-victim kill wave runs in
// seconds; a reintroduced O(n^2) scan shows up as a timeout here first.

TEST(WorkloadScale, SimClusterKillWaveAt300Providers) {
  constexpr size_t kProviders = 300;
  constexpr size_t kWave = 30;
  constexpr uint64_t kBeat = 500 * 1000;
  simnet::SimScheduler sched;
  bool checked_flag = false;
  sched.Run([&] {
    core::SimClusterOptions so;
    so.num_provider_nodes = kProviders;
    so.num_client_nodes = 1;
    so.num_dht_nodes = 16;
    so.page_store = "memory";
    so.replication = 3;
    so.write_quorum = 2;
    so.heartbeat_interval_us = kBeat;
    so.suspect_after_us = 3 * kBeat;
    so.dead_after_us = 6 * kBeat;
    core::SimCluster cluster(&sched, so);
    ASSERT_EQ(cluster.dht_addresses().size(), 16u);

    pmanager::ProviderManagerClient pm(&cluster.transport(),
                                       cluster.pm_address());
    auto before = pm.FetchStatsAsync().Wait(&cluster.executor());
    ASSERT_TRUE(before.ok());
    EXPECT_EQ(before->providers, kProviders);

    // Write a little traffic so victims hold pages.
    auto client = cluster.NewClient();
    auto id = client->Create(4096);
    ASSERT_TRUE(id.ok());
    std::string payload(4096 * 8, 'w');
    auto v = client->Append(*id, payload);
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(client->Sync(*id, *v).ok());

    std::vector<size_t> victims;
    for (size_t i = 0; i < kWave; i++)
      victims.push_back(i * kProviders / kWave);
    ASSERT_TRUE(cluster.StopProviders(victims).ok());

    // Let the detector expire the wave, then the directory must show
    // exactly the victims dead and everyone else alive.
    cluster.clock().SleepForMicros(so.dead_after_us + 2 * kBeat);
    auto after = pm.FetchStatsAsync().Wait(&cluster.executor());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after->dead, kWave);
    EXPECT_EQ(after->alive, kProviders - kWave);

    // Survivors still serve the blob (r=3 spread absorbs a 10% wave).
    std::string out;
    EXPECT_TRUE(client->Read(*id, *v, 0, payload.size(), &out).ok());
    EXPECT_EQ(out, payload);
    checked_flag = true;
  });
  EXPECT_TRUE(checked_flag);
}

// Registration must be address-stable (same address re-registers under the
// same id) — RestartProvider and the scale campaigns depend on it.
TEST(WorkloadScale, ReRegistrationKeepsIds) {
  simnet::SimScheduler sched;
  bool checked_flag = false;
  sched.Run([&] {
    core::SimClusterOptions so;
    so.num_provider_nodes = 20;
    so.page_store = "memory";
    core::SimCluster cluster(&sched, so);
    pmanager::ProviderManagerClient pm(&cluster.transport(),
                                       cluster.pm_address());
    for (size_t i = 0; i < cluster.num_provider_nodes(); i++) {
      auto again = pm.RegisterAsync(cluster.provider_addresses()[i], 0)
                       .Wait(&cluster.executor());
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(*again, cluster.provider_id(i)) << i;
    }
    auto stats = pm.FetchStatsAsync().Wait(&cluster.executor());
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->providers, cluster.num_provider_nodes());
    checked_flag = true;
  });
  EXPECT_TRUE(checked_flag);
}

}  // namespace
}  // namespace blobseer
