// DHT tests: store semantics, placement distribution, replicated client,
// replica failover.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>

#include "common/random.h"
#include "common/string_util.h"
#include "dht/client.h"
#include "dht/placement.h"
#include "dht/service.h"
#include "dht/store.h"
#include "recording_transport.h"
#include "rpc/inproc.h"

namespace blobseer::dht {
namespace {

TEST(KvStoreTest, PutGetDelete) {
  KvStore store(4);
  std::string v;
  EXPECT_TRUE(store.Get(Slice("k"), &v).IsNotFound());
  ASSERT_TRUE(store.Put(Slice("k"), Slice("v1")).ok());
  ASSERT_TRUE(store.Get(Slice("k"), &v).ok());
  EXPECT_EQ(v, "v1");
  ASSERT_TRUE(store.Put(Slice("k"), Slice("v2")).ok());  // overwrite allowed
  ASSERT_TRUE(store.Get(Slice("k"), &v).ok());
  EXPECT_EQ(v, "v2");
  ASSERT_TRUE(store.Delete(Slice("k")).ok());
  EXPECT_TRUE(store.Get(Slice("k"), &v).IsNotFound());
  ASSERT_TRUE(store.Delete(Slice("k")).ok());  // idempotent
}

TEST(KvStoreTest, StatsTrackKeysAndBytes) {
  KvStore store(4);
  ASSERT_TRUE(store.Put(Slice("alpha"), Slice("12345")).ok());
  ASSERT_TRUE(store.Put(Slice("beta"), Slice("1")).ok());
  StoreStats st = store.GetStats();
  EXPECT_EQ(st.keys, 2u);
  EXPECT_EQ(st.bytes, 5 + 5 + 4 + 1u);
  ASSERT_TRUE(store.Delete(Slice("alpha")).ok());
  st = store.GetStats();
  EXPECT_EQ(st.keys, 1u);
  EXPECT_EQ(st.bytes, 5u);
}

TEST(KvStoreTest, ConcurrentMixedOps) {
  KvStore store(16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; i++) {
        std::string k = StrFormat("key-%d-%d", t, i);
        ASSERT_TRUE(store.Put(Slice(k), Slice(k)).ok());
        std::string v;
        ASSERT_TRUE(store.Get(Slice(k), &v).ok());
        ASSERT_EQ(v, k);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.GetStats().keys, 8 * 500u);
}

TEST(PlacementTest, StaticIsDeterministicAndInRange) {
  StaticPlacement p(7);
  for (int i = 0; i < 100; i++) {
    std::string k = "key" + std::to_string(i);
    size_t n = p.NodeFor(Slice(k));
    EXPECT_LT(n, 7u);
    EXPECT_EQ(n, p.NodeFor(Slice(k)));
  }
}

TEST(PlacementTest, StaticSpreadsKeys) {
  StaticPlacement p(8);
  std::map<size_t, int> counts;
  for (int i = 0; i < 8000; i++) {
    counts[p.NodeFor(Slice("key" + std::to_string(i)))]++;
  }
  ASSERT_EQ(counts.size(), 8u);
  for (auto& [node, c] : counts) {
    EXPECT_GT(c, 700) << "node " << node << " starved";
    EXPECT_LT(c, 1300) << "node " << node << " overloaded";
  }
}

TEST(PlacementTest, ReplicasAreDistinct) {
  StaticPlacement p(5);
  for (int i = 0; i < 50; i++) {
    auto reps = p.ReplicaNodes(Slice("k" + std::to_string(i)), 3);
    ASSERT_EQ(reps.size(), 3u);
    EXPECT_NE(reps[0], reps[1]);
    EXPECT_NE(reps[1], reps[2]);
    EXPECT_NE(reps[0], reps[2]);
  }
}

TEST(PlacementTest, ReplicasClampToNodeCount) {
  StaticPlacement p(2);
  EXPECT_EQ(p.ReplicaNodes(Slice("k"), 5).size(), 2u);
}

class DhtClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; i++) {
      auto svc = std::make_shared<DhtService>();
      services_.push_back(svc);
      std::string addr = StrFormat("inproc://dht-%d", i);
      ASSERT_TRUE(net_.Serve(addr, svc).ok());
      addresses_.push_back(addr);
    }
  }

  rpc::InProcNetwork net_;
  std::vector<std::shared_ptr<DhtService>> services_;
  std::vector<std::string> addresses_;
};

TEST_F(DhtClientTest, PutGetAcrossNodes) {
  DhtClient client(&net_, addresses_);
  for (int i = 0; i < 200; i++) {
    std::string k = "key" + std::to_string(i);
    ASSERT_TRUE(
        client.MultiPutAsync({{k, "value" + std::to_string(i)}}).Wait().ok());
  }
  for (int i = 0; i < 200; i++) {
    auto v = client.GetAsync(Slice("key" + std::to_string(i))).Wait();
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "value" + std::to_string(i));
  }
  // Keys actually spread across nodes.
  int populated = 0;
  for (auto& svc : services_) {
    if (svc->store().GetStats().keys > 0) populated++;
  }
  EXPECT_GE(populated, 3);
}

TEST_F(DhtClientTest, MissingKeyIsNotFound) {
  DhtClient client(&net_, addresses_);
  EXPECT_TRUE(client.GetAsync(Slice("nope")).Wait().status().IsNotFound());
}

TEST_F(DhtClientTest, ReplicationSurvivesPrimaryLoss) {
  DhtClientOptions opts;
  opts.replication = 2;
  DhtClient client(&net_, addresses_, opts);
  std::vector<std::string> keys;
  for (int i = 0; i < 100; i++) {
    keys.push_back("rk" + std::to_string(i));
    ASSERT_TRUE(client.MultiPutAsync({{keys.back(), "v"}}).Wait().ok());
  }
  // Kill one node: every key must remain readable via its replica (the
  // GetAsync fallback across replicas in placement order).
  ASSERT_TRUE(net_.StopServing(addresses_[1]).ok());
  for (const auto& k : keys) {
    auto v = client.GetAsync(Slice(k)).Wait();
    ASSERT_TRUE(v.ok()) << "lost key " << k;
    EXPECT_EQ(*v, "v");
  }
}

TEST_F(DhtClientTest, WithoutReplicationLossIsVisible) {
  DhtClient client(&net_, addresses_);
  StaticPlacement placement(addresses_.size());
  std::string victim_key;
  for (int i = 0; i < 1000 && victim_key.empty(); i++) {
    std::string k = "vk" + std::to_string(i);
    if (placement.NodeFor(Slice(k)) == 2) victim_key = k;
  }
  ASSERT_FALSE(victim_key.empty());
  ASSERT_TRUE(client.MultiPutAsync({{victim_key, "v"}}).Wait().ok());
  ASSERT_TRUE(net_.StopServing(addresses_[2]).ok());
  EXPECT_FALSE(client.GetAsync(Slice(victim_key)).Wait().ok());
}

TEST_F(DhtClientTest, TotalStatsAggregates) {
  DhtClient client(&net_, addresses_);
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(client.MultiPutAsync({{"sk" + std::to_string(i), "0123456789"}})
                    .Wait()
                    .ok());
  }
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(
        client.DeleteAsync(Slice("sk" + std::to_string(i))).Wait().ok());
  }
  auto st = client.TotalStatsAsync().Wait();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->keys, 30u);
  EXPECT_GT(st->bytes, 300u);
  EXPECT_EQ(st->puts, 50u);
  EXPECT_EQ(st->deletes, 20u);
}

std::vector<PutRequest> Entries(const std::string& prefix, int n) {
  std::vector<PutRequest> out;
  for (int i = 0; i < n; i++)
    out.push_back(PutRequest{prefix + std::to_string(i), "v" + std::to_string(i)});
  return out;
}

TEST_F(DhtClientTest, MultiPutOfNothingIsOkAndSendsNothing) {
  testing::RecordingTransport rec(&net_);
  DhtClient client(&rec, addresses_);
  ASSERT_TRUE(client.MultiPutAsync({}).Wait().ok());
  EXPECT_TRUE(rec.calls().empty());
}

TEST_F(DhtClientTest, MultiPutSendsOneBatchPerNode) {
  testing::RecordingTransport rec(&net_);
  DhtClient client(&rec, addresses_);
  ASSERT_TRUE(client.MultiPutAsync(Entries("mk", 200)).Wait().ok());
  EXPECT_EQ(rec.calls().size(), addresses_.size());
  for (const auto& call : rec.calls())
    EXPECT_EQ(call.method, rpc::Method::kDhtMultiPut);
  for (int i = 0; i < 200; i++) {
    auto v = client.GetAsync(Slice("mk" + std::to_string(i))).Wait();
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, "v" + std::to_string(i));
  }
}

TEST(GroupByNodeTest, SplitsOnlyOversizedBatches) {
  StaticPlacement placement(4);
  auto keys_of = [](const std::vector<PutBatch>& batches) {
    std::vector<size_t> keys;
    for (const PutBatch& b : batches) {
      EXPECT_EQ(b.keys.size(), b.req.entries.size());
      keys.insert(keys.end(), b.keys.begin(), b.keys.end());
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  std::vector<size_t> all(100);
  for (size_t i = 0; i < all.size(); i++) all[i] = i;

  std::vector<PutBatch> whole =
      GroupByNode(Entries("sk", 100), placement, 1, SIZE_MAX);
  EXPECT_EQ(whole.size(), 4u);
  EXPECT_EQ(keys_of(whole), all);

  const size_t limit = 64;  // ~5 of these entries per batch
  std::vector<PutBatch> split =
      GroupByNode(Entries("sk", 100), placement, 1, limit);
  EXPECT_GT(split.size(), 4u);
  EXPECT_EQ(keys_of(split), all);
  for (const PutBatch& b : split) {
    size_t bytes = 0;
    for (size_t k = 0; k < b.keys.size(); k++) {
      const PutRequest& e = b.req.entries[k];
      EXPECT_EQ(e.key, "sk" + std::to_string(b.keys[k]));
      EXPECT_EQ(placement.NodeFor(Slice(e.key)), b.node);
      bytes += 8 + e.key.size() + e.value.size();
    }
    EXPECT_LE(bytes, limit);
  }
}

TEST_F(DhtClientTest, ReplicatedMultiPutSurvivesOneNodeDown) {
  DhtClientOptions opts;
  opts.replication = 2;
  DhtClient client(&net_, addresses_, opts);
  ASSERT_TRUE(net_.StopServing(addresses_[1]).ok());
  // Every key keeps one live replica, so the batch is accepted.
  ASSERT_TRUE(client.MultiPutAsync(Entries("rk", 100)).Wait().ok());
  for (int i = 0; i < 100; i++) {
    auto v = client.GetAsync(Slice("rk" + std::to_string(i))).Wait();
    ASSERT_TRUE(v.ok()) << "lost key rk" << i;
    EXPECT_EQ(*v, "v" + std::to_string(i));
  }
}

TEST_F(DhtClientTest, MultiPutFailsWhenAKeyHasNoLiveReplica) {
  DhtClientOptions opts;
  opts.replication = 2;
  DhtClient client(&net_, addresses_, opts);
  StaticPlacement placement(addresses_.size());
  // Keys whose replicas are nodes 1 and 2 have no live replica below.
  std::vector<PutRequest> entries = Entries("fk", 50);
  bool doomed = false;
  for (const auto& e : entries) doomed |= placement.NodeFor(Slice(e.key)) == 1;
  ASSERT_TRUE(doomed);
  ASSERT_TRUE(net_.StopServing(addresses_[1]).ok());
  ASSERT_TRUE(net_.StopServing(addresses_[2]).ok());
  EXPECT_FALSE(client.MultiPutAsync(std::move(entries)).Wait().ok());
}

}  // namespace
}  // namespace blobseer::dht
