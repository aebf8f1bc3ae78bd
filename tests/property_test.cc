// Randomized property testing: arbitrary interleavings of WRITE / APPEND /
// BRANCH / READ across several blobs, replayed against the serial
// reference model, plus random heartbeat/clock-advance interleavings
// against a reference liveness model. Seeds are part of the test name for
// reproducibility.
#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "core/cluster.h"
#include "pmanager/client.h"
#include "pmanager/service.h"
#include "reference_blob.h"
#include "rpc/inproc.h"

namespace blobseer {
namespace {

using client::BlobClient;
using testing::ReferenceBlob;
using testing::TestPayload;

struct TrackedBlob {
  BlobId id;
  ReferenceBlob ref;
};

class PropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PropertyTest, RandomOpsMatchReferenceModel) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  core::ClusterOptions opts;
  opts.num_providers = 3;
  opts.num_meta = 3;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  client::ClientOptions copts;
  copts.max_chain = 3 + seed % 5;  // exercise compaction paths
  auto client_or = (*cluster)->NewClient(copts);
  ASSERT_TRUE(client_or.ok());
  BlobClient& client = **client_or;

  const uint64_t psize = uint64_t{1} << rng.Range(3, 7);  // 8..128
  std::vector<TrackedBlob> blobs;
  {
    auto id = client.Create(psize);
    ASSERT_TRUE(id.ok());
    blobs.push_back(TrackedBlob{*id, ReferenceBlob()});
  }

  const int kOps = 120;
  for (int op = 0; op < kOps; op++) {
    TrackedBlob& b = blobs[rng.Uniform(blobs.size())];
    uint64_t size = b.ref.Size(b.ref.latest());
    switch (rng.Uniform(10)) {
      case 0:
      case 1:
      case 2:
      case 3: {  // append
        std::string data = TestPayload(seed * 1000 + op, rng.Range(1, 300));
        auto v = client.Append(b.id, Slice(data));
        ASSERT_TRUE(v.ok()) << v.status().ToString();
        ASSERT_EQ(*v, b.ref.ApplyAppend(data)) << "op " << op;
        break;
      }
      case 4:
      case 5:
      case 6: {  // write somewhere valid (may extend)
        if (size == 0) break;
        uint64_t off = rng.Uniform(size + 1);
        std::string data = TestPayload(seed * 1000 + op, rng.Range(1, 200));
        auto v = client.Write(b.id, Slice(data), off);
        ASSERT_TRUE(v.ok()) << v.status().ToString();
        ASSERT_EQ(*v, b.ref.ApplyWrite(data, off)) << "op " << op;
        break;
      }
      case 7: {  // read a random published snapshot range
        Version v = rng.Uniform(b.ref.latest() + 1);
        ASSERT_TRUE(client.Sync(b.id, v).ok());
        uint64_t vsize = b.ref.Size(v);
        if (vsize == 0) break;
        uint64_t off = rng.Uniform(vsize);
        uint64_t len = rng.Range(1, vsize - off);
        std::string out;
        ASSERT_TRUE(client.Read(b.id, v, off, len, &out).ok())
            << "op " << op << " v" << v;
        ASSERT_EQ(out, b.ref.Read(v, off, len)) << "op " << op << " v" << v;
        break;
      }
      case 8: {  // invalid op must fail cleanly
        std::string data = TestPayload(op, 10);
        EXPECT_FALSE(client.Write(b.id, Slice(data), size + 1 + rng.Uniform(50))
                         .ok());
        break;
      }
      case 9: {  // branch from a random published version
        if (blobs.size() >= 4) break;
        Version v = rng.Uniform(b.ref.latest() + 1);
        ASSERT_TRUE(client.Sync(b.id, v).ok());
        auto bid = client.Branch(b.id, v);
        ASSERT_TRUE(bid.ok()) << bid.status().ToString();
        blobs.push_back(TrackedBlob{*bid, b.ref.BranchAt(v)});
        break;
      }
    }
  }

  // Final audit: every snapshot of every blob equals the reference.
  for (TrackedBlob& b : blobs) {
    ASSERT_TRUE(client.Sync(b.id, b.ref.latest()).ok());
    for (Version v = 0; v <= b.ref.latest(); v++) {
      auto size = client.GetSize(b.id, v);
      ASSERT_TRUE(size.ok()) << "blob " << b.id << " v" << v;
      ASSERT_EQ(*size, b.ref.Size(v)) << "blob " << b.id << " v" << v;
      std::string out;
      ASSERT_TRUE(client.Read(b.id, v, 0, *size, &out).ok())
          << "blob " << b.id << " v" << v;
      ASSERT_EQ(out, b.ref.Contents(v)) << "blob " << b.id << " v" << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Liveness state machine ------------------------------------------------

/// Deterministic test clock: time moves only when the test says so.
class ManualClock : public Clock {
 public:
  uint64_t NowMicros() override { return now_; }
  void SleepForMicros(uint64_t micros) override { now_ += micros; }
  void Advance(uint64_t micros) { now_ += micros; }

 private:
  uint64_t now_ = 1;
};

class LivenessPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Random interleavings of heartbeats, clock advances and allocations must
// never allocate a dead provider, never mark a provider dead while its
// beats are on time, and must agree with the reference liveness model
// derived purely from heartbeat ages.
TEST_P(LivenessPropertyTest, RandomBeatsAndClockAdvancesMatchReference) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  constexpr uint64_t kSuspectAfter = 500;
  constexpr uint64_t kDeadAfter = 1500;
  constexpr size_t kProviders = 6;

  ManualClock clock;
  auto svc = std::make_shared<pmanager::ProviderManagerService>(
      pmanager::MakeStrategy(seed % 2 == 0 ? "round_robin" : "least_loaded"),
      &clock, pmanager::LivenessOptions{kSuspectAfter, kDeadAfter});
  rpc::InProcNetwork net;
  ASSERT_TRUE(net.Serve("inproc://pm", svc).ok());
  pmanager::ProviderManagerClient client(&net, "inproc://pm");

  std::vector<uint64_t> last_beat(kProviders);
  for (size_t i = 0; i < kProviders; i++) {
    auto id =
        client.RegisterAsync("inproc://prov-" + std::to_string(i), 0).Wait();
    ASSERT_TRUE(id.ok());
    ASSERT_EQ(*id, i);
    last_beat[i] = clock.NowMicros();
  }

  auto expected = [&](size_t i) {
    uint64_t age = clock.NowMicros() - last_beat[i];
    if (age >= kDeadAfter) return pmanager::Liveness::kDead;
    if (age >= kSuspectAfter) return pmanager::Liveness::kSuspect;
    return pmanager::Liveness::kAlive;
  };

  for (int op = 0; op < 400; op++) {
    switch (rng.Uniform(3)) {
      case 0:
        clock.Advance(rng.Range(1, 400));
        break;
      case 1: {  // one provider beats (possibly one already presumed dead)
        size_t i = rng.Uniform(kProviders);
        ASSERT_TRUE(client.HeartbeatAsync(static_cast<ProviderId>(i), 0, 0)
                        .Wait()
                        .ok());
        last_beat[i] = clock.NowMicros();
        break;
      }
      case 2: {  // allocate and audit the replica sets
        uint32_t r = 1 + static_cast<uint32_t>(rng.Uniform(4));
        size_t alive = 0, nondead = 0;
        for (size_t i = 0; i < kProviders; i++) {
          if (expected(i) == pmanager::Liveness::kAlive) alive++;
          if (expected(i) != pmanager::Liveness::kDead) nondead++;
        }
        auto sets =
            client.AllocateReplicatedAsync(1 + rng.Uniform(4), r).Wait();
        if (nondead < r) {
          // Not even the suspect fallback can reach r distinct providers.
          EXPECT_TRUE(sets.status().IsUnavailable()) << "op " << op;
          break;
        }
        ASSERT_TRUE(sets.ok()) << "op " << op << ": "
                               << sets.status().ToString();
        for (const auto& set : *sets) {
          for (ProviderId p : set) {
            // A dead provider must never be allocated...
            EXPECT_NE(expected(p), pmanager::Liveness::kDead)
                << "op " << op;
            // ...and suspects only enter when live capacity < r.
            if (expected(p) == pmanager::Liveness::kSuspect) {
              EXPECT_LT(alive, r) << "op " << op;
            }
          }
        }
        break;
      }
    }
    // The service's verdicts must match the reference model exactly; in
    // particular a provider whose beats are on time is never dead.
    auto records = svc->Records();
    ASSERT_EQ(records.size(), kProviders);
    for (const auto& rec : records) {
      EXPECT_EQ(rec.liveness, expected(rec.id)) << "op " << op << " provider "
                                                << rec.id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LivenessPropertyTest,
                         ::testing::Values(7, 11, 23, 41, 59, 97));

}  // namespace
}  // namespace blobseer
