// Readers racing the GC sweeper under churn (simnet, virtual time): a
// writer keeps overwriting a blob under a keep-last-k retention policy
// while the provider-manager-hosted sweeper discards and sweeps expired
// versions on its own loop — with a provider killed and restarted in the
// middle. The contract: reads of retained versions always succeed with
// exact contents; reads of expired versions either succeed with exact
// contents (the read won the race) or fail NotFound — never garbage bytes,
// never a crash.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "client/blob_handle.h"
#include "core/sim_cluster.h"
#include "lifecycle/retention.h"
#include "reference_blob.h"
#include "vmanager/client.h"

namespace blobseer {
namespace {

using client::Blob;
using testing::TestPayload;

constexpr uint64_t kMs = 1000;  // microseconds per millisecond

// Detector/rebuild cadence shared with rereplication_test.cc, plus a GC
// pass every 400 ms of virtual time.
constexpr uint64_t kBeat = 100 * kMs;
constexpr uint64_t kSuspectAfter = 500 * kMs;
constexpr uint64_t kDeadAfter = 1500 * kMs;
constexpr uint64_t kRebuildEvery = 200 * kMs;
constexpr uint64_t kGcEvery = 400 * kMs;

core::SimClusterOptions GcChurnOptions() {
  core::SimClusterOptions opts;
  opts.num_provider_nodes = 5;
  opts.page_store = "memory";
  opts.replication = 3;
  opts.write_quorum = 2;
  opts.heartbeat_interval_us = kBeat;
  opts.suspect_after_us = kSuspectAfter;
  opts.dead_after_us = kDeadAfter;
  opts.rebuild_interval_us = kRebuildEvery;
  opts.gc_interval_us = kGcEvery;
  opts.gc_max_sweep = 4096;
  return opts;
}

TEST(LifecycleChurnTest, ReadersNeverSeeGarbageWhileGcSweeps) {
  simnet::SimScheduler sched;
  bool checked = false;
  sched.Run([&] {
    core::SimCluster cluster(&sched, GcChurnOptions());
    auto client = cluster.NewClient();
    constexpr uint64_t kPage = 4096;
    constexpr size_t kPagesPerVersion = 2;
    constexpr size_t kVersions = 20;
    constexpr uint32_t kKeep = 3;

    auto id = client->Create(kPage);
    ASSERT_TRUE(id.ok());
    Blob blob(client.get(), *id);
    vmanager::VersionManagerClient vm(&cluster.transport(),
                                      cluster.vm_address());
    ASSERT_TRUE(vm.SetRetentionAsync(*id, lifecycle::RetentionPolicy{kKeep, 0})
                    .Wait(&cluster.executor())
                    .ok());

    // contents[v] is the exact body snapshot v must read back as.
    std::vector<std::string> contents(kVersions + 1);
    size_t stale_ok = 0, stale_gone = 0;
    for (size_t i = 1; i <= kVersions; i++) {
      std::string payload = TestPayload(i, kPagesPerVersion * kPage);
      auto v = blob.WriteSync(payload, 0);
      ASSERT_TRUE(v.ok()) << "write " << i << ": " << v.status().ToString();
      ASSERT_EQ(*v, i);
      contents[i] = payload;

      // Kill a provider mid-run and bring it back later: the sweeper's
      // pass loop keeps firing across the failure and the recovery.
      if (i == 8) {
        ASSERT_TRUE(cluster.StopProvider(1).ok());
      }
      if (i == 14) {
        ASSERT_TRUE(cluster.RestartProvider(1).ok());
      }

      // Space the writes out so sweeper passes interleave with them.
      cluster.clock().SleepForMicros(150 * kMs);

      // The freshly published version is inside the retention window: its
      // read must succeed with exact contents no matter what GC is doing.
      std::string out;
      ASSERT_TRUE(blob.Read(i, 0, contents[i].size(), &out).ok())
          << "retained v" << i;
      ASSERT_EQ(out, contents[i]) << "retained v" << i;

      // A version well past the window races the sweeper: by the time we
      // read it, it may be untouched, discarded, or mid-sweep. OK implies
      // byte-exact contents; the only acceptable failure is NotFound.
      if (i > kKeep + 2) {
        Version stale = i - kKeep - 2;
        Status st = blob.Read(stale, 0, contents[stale].size(), &out);
        if (st.ok()) {
          ASSERT_EQ(out, contents[stale]) << "stale v" << stale;
          stale_ok++;
        } else {
          ASSERT_TRUE(st.IsNotFound())
              << "stale v" << stale << ": " << st.ToString();
          stale_gone++;
        }
      }
    }

    // Let the sweeper catch up, then check the steady state: the newest
    // kKeep versions are readable and exact, older ones are gone.
    cluster.clock().SleepForMicros(4 * kGcEvery);
    std::string out;
    for (Version v = kVersions - kKeep + 1; v <= kVersions; v++) {
      ASSERT_TRUE(blob.Read(v, 0, contents[v].size(), &out).ok())
          << "v" << v;
      ASSERT_EQ(out, contents[v]) << "v" << v;
    }
    for (Version v = 1; v <= kVersions - kKeep; v++) {
      EXPECT_TRUE(blob.Read(v, 0, kPage, &out).IsNotFound()) << "v" << v;
    }
    EXPECT_GT(stale_gone, 0u) << "GC never won the race — test too lenient";

    auto stats = cluster.pmanager().gc_sweeper()->GetStats();
    EXPECT_GT(stats.passes, 0u);
    EXPECT_GT(stats.versions_discarded, 0u);
    EXPECT_GT(stats.pages_swept, 0u);
    checked = true;
  });
  EXPECT_TRUE(checked);
}

}  // namespace
}  // namespace blobseer
