// Provider manager tests: allocation strategies and the registry service.
#include <gtest/gtest.h>

#include <set>

#include "pmanager/client.h"
#include "pmanager/service.h"
#include "pmanager/strategy.h"
#include "rpc/inproc.h"

namespace blobseer::pmanager {
namespace {

std::vector<ProviderRecord> MakeRecords(size_t n) {
  std::vector<ProviderRecord> recs;
  for (size_t i = 0; i < n; i++) {
    ProviderRecord r;
    r.id = static_cast<ProviderId>(i);
    r.address = "p" + std::to_string(i);
    recs.push_back(r);
  }
  return recs;
}

// r=1 sets flattened to their single member (the old flat-allocation shape).
std::vector<ProviderId> Flatten(const std::vector<ReplicaSet>& sets) {
  std::vector<ProviderId> out;
  for (const auto& s : sets) out.insert(out.end(), s.begin(), s.end());
  return out;
}

TEST(StrategyTest, RoundRobinIsPerfectlyEven) {
  auto recs = MakeRecords(5);
  auto strat = MakeRoundRobinStrategy();
  auto got = strat->Allocate(&recs, 50, 1);
  ASSERT_EQ(got.size(), 50u);
  for (const auto& r : recs) EXPECT_EQ(r.allocated_pages, 10u);
  // Consecutive allocations continue the cycle.
  auto got2 = Flatten(strat->Allocate(&recs, 5, 1));
  std::set<ProviderId> distinct(got2.begin(), got2.end());
  EXPECT_EQ(distinct.size(), 5u);
}

TEST(StrategyTest, LeastLoadedCorrectsImbalance) {
  auto recs = MakeRecords(3);
  recs[0].allocated_pages = 100;
  recs[1].allocated_pages = 50;
  auto strat = MakeLeastLoadedStrategy();
  auto got = strat->Allocate(&recs, 50, 1);
  ASSERT_EQ(got.size(), 50u);
  // All new pages go to the emptiest provider(s).
  EXPECT_EQ(recs[0].allocated_pages, 100u);
  EXPECT_LE(recs[1].allocated_pages, 67u);
  EXPECT_GE(recs[2].allocated_pages, 33u);
}

TEST(StrategyTest, RandomAndPowerOfTwoStayRoughlyBalanced) {
  for (auto name : {"random", "power_of_two"}) {
    auto recs = MakeRecords(8);
    auto strat = MakeStrategy(name);
    strat->Allocate(&recs, 8000, 1);
    for (const auto& r : recs) {
      EXPECT_GT(r.allocated_pages, 500u) << name;
      EXPECT_LT(r.allocated_pages, 1600u) << name;
    }
  }
}

TEST(StrategyTest, PowerOfTwoBeatsRandomOnMaxLoad) {
  auto recs_rand = MakeRecords(16);
  auto recs_p2 = MakeRecords(16);
  MakeRandomStrategy(99)->Allocate(&recs_rand, 16000, 1);
  MakePowerOfTwoStrategy(99)->Allocate(&recs_p2, 16000, 1);
  auto max_load = [](const std::vector<ProviderRecord>& v) {
    uint64_t m = 0;
    for (const auto& r : v) m = std::max(m, r.allocated_pages);
    return m;
  };
  EXPECT_LE(max_load(recs_p2), max_load(recs_rand));
}

TEST(StrategyTest, CapacityLimitsRespected) {
  auto recs = MakeRecords(2);
  recs[0].capacity_pages = 3;
  auto strat = MakeRoundRobinStrategy();
  auto got = strat->Allocate(&recs, 10, 1);
  ASSERT_EQ(got.size(), 10u);
  EXPECT_LE(recs[0].allocated_pages, 4u);  // can exceed cap by at most in-batch
  auto got2 = Flatten(strat->Allocate(&recs, 4, 1));
  for (ProviderId id : got2) EXPECT_EQ(id, 1u);  // provider 0 full
}

TEST(StrategyTest, DeadProvidersSkipped) {
  auto recs = MakeRecords(3);
  recs[1].liveness = Liveness::kDead;
  auto got = Flatten(MakeRoundRobinStrategy()->Allocate(&recs, 10, 1));
  for (ProviderId id : got) EXPECT_NE(id, 1u);
}

TEST(StrategyTest, SuspectFallbackKicksInMidAllocationWhenAliveRetire) {
  for (auto name : {"round_robin", "random", "least_loaded", "power_of_two"}) {
    // 3 alive providers with one page of headroom each, 2 roomy suspects,
    // r=2. Eligibility starts alive-only (3 >= r), but the alive providers
    // retire at capacity during the same Allocate call — the suspects must
    // then join the pool mid-allocation instead of the later pages failing
    // with short sets.
    auto recs = MakeRecords(5);
    for (size_t i = 0; i < 3; i++) {
      recs[i].capacity_pages = 1;
    }
    recs[3].liveness = Liveness::kSuspect;
    recs[4].liveness = Liveness::kSuspect;
    auto sets = MakeStrategy(name)->Allocate(&recs, 6, 2);
    ASSERT_EQ(sets.size(), 6u) << name;
    for (const auto& set : sets) {
      ASSERT_EQ(set.size(), 2u) << name;
      std::set<ProviderId> distinct(set.begin(), set.end());
      EXPECT_EQ(distinct.size(), 2u) << name;
    }
  }
}

TEST(StrategyTest, SuspectsExcludedUntilLiveCapacityBelowR) {
  for (auto name : {"round_robin", "random", "least_loaded", "power_of_two"}) {
    // 4 alive + 1 suspect at r=2: the suspect must not receive replicas.
    auto recs = MakeRecords(5);
    recs[3].liveness = Liveness::kSuspect;
    auto sets = MakeStrategy(name)->Allocate(&recs, 40, 2);
    ASSERT_EQ(sets.size(), 40u) << name;
    for (const auto& set : sets) {
      for (ProviderId id : set) EXPECT_NE(id, 3u) << name;
    }
    // 1 alive + 2 suspects + 1 dead at r=2: live capacity < r, so suspects
    // join the pool (sloppy membership) but the dead provider never does.
    auto few = MakeRecords(4);
    few[1].liveness = Liveness::kSuspect;
    few[2].liveness = Liveness::kSuspect;
    few[3].liveness = Liveness::kDead;
    auto fallback = MakeStrategy(name)->Allocate(&few, 10, 2);
    ASSERT_EQ(fallback.size(), 10u) << name;
    for (const auto& set : fallback) {
      ASSERT_EQ(set.size(), 2u) << name;
      for (ProviderId id : set) EXPECT_NE(id, 3u) << name;
    }
  }
}

class PmServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    svc_ = std::make_shared<ProviderManagerService>();
    ASSERT_TRUE(net_.Serve("inproc://pm", svc_).ok());
    client_ = std::make_unique<ProviderManagerClient>(&net_, "inproc://pm");
  }

  rpc::InProcNetwork net_;
  std::shared_ptr<ProviderManagerService> svc_;
  std::unique_ptr<ProviderManagerClient> client_;
};

TEST_F(PmServiceTest, RegisterAssignsStableIds) {
  auto a = client_->RegisterAsync("inproc://prov-a", 0).Wait();
  auto b = client_->RegisterAsync("inproc://prov-b", 0).Wait();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 1u);
  // Re-registration (provider restart) keeps the id.
  auto a2 = client_->RegisterAsync("inproc://prov-a", 0).Wait();
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(*a2, 0u);
}

TEST_F(PmServiceTest, AllocateWithoutProvidersFails) {
  EXPECT_TRUE(
      client_->AllocateReplicatedAsync(3, 1).Wait().status().IsUnavailable());
}

TEST_F(PmServiceTest, AllocateAndResolve) {
  ASSERT_TRUE(client_->RegisterAsync("inproc://prov-a", 0).Wait().ok());
  ASSERT_TRUE(client_->RegisterAsync("inproc://prov-b", 0).Wait().ok());
  auto sets = client_->AllocateReplicatedAsync(4, 1).Wait();
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ(sets->size(), 4u);
  for (const auto& set : *sets) {
    ASSERT_EQ(set.size(), 1u);
    auto addr = client_->ResolveAddressAsync(set[0]).Wait();
    ASSERT_TRUE(addr.ok());
    EXPECT_TRUE(addr->find("inproc://prov-") == 0);
  }
  EXPECT_TRUE(client_->ResolveAddressAsync(42).Wait().status().IsNotFound());
}

TEST_F(PmServiceTest, HeartbeatOverridesLoadEstimate) {
  auto id = client_->RegisterAsync("inproc://prov-a", 0).Wait();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(client_->AllocateReplicatedAsync(10, 1).Wait().ok());
  ASSERT_TRUE(client_->HeartbeatAsync(*id, 3, 4096).Wait().ok());
  auto recs = svc_->Records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].allocated_pages, 3u);
  EXPECT_TRUE(client_->HeartbeatAsync(99, 0, 0).Wait().status().IsNotFound());
}

TEST_F(PmServiceTest, ZeroPageAllocationRejected) {
  ASSERT_TRUE(client_->RegisterAsync("inproc://prov-a", 0).Wait().ok());
  EXPECT_TRUE(client_->AllocateReplicatedAsync(0, 1)
                  .Wait()
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace blobseer::pmanager
