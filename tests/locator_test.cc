// Locator subsystem tests: location-entry wire format, DHT compare-and-swap
// (store and client), the client-side LocationIndex (cache, publish, CAS,
// concurrent refcount adjustment), the provider manager's page-location
// table, and direct
// Rebuilder::RunOnePass scenarios — heal, drain, rebalance, CAS conflict,
// deleted-entry cleanup and the per-pass move budget.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "dht/client.h"
#include "dht/service.h"
#include "dht/store.h"
#include "locator/location.h"
#include "locator/rebuilder.h"
#include "locator/table.h"
#include "provider/client.h"
#include "provider/page_store.h"
#include "provider/service.h"
#include "rpc/inproc.h"

namespace blobseer::locator {
namespace {

// --- Wire format -----------------------------------------------------------

TEST(LocationKeyTest, KeysAreDistinctAndDeterministic) {
  EXPECT_EQ(LocationKey(PageId{1, 2}), LocationKey(PageId{1, 2}));
  EXPECT_NE(LocationKey(PageId{1, 2}), LocationKey(PageId{1, 3}));
  EXPECT_NE(LocationKey(PageId{1, 2}), LocationKey(PageId{2, 2}));
}

TEST(LocationEntrySerdeTest, RoundTrip) {
  LocationEntry e{7, {3, 1, 4}};
  BinaryWriter w;
  e.EncodeTo(&w);
  LocationEntry decoded;
  BinaryReader r{Slice(w.buffer())};
  ASSERT_TRUE(decoded.DecodeFrom(&r).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(decoded, e);
  EXPECT_TRUE(decoded.valid());
}

TEST(LocationEntrySerdeTest, TruncatedAndOversizedRejected) {
  LocationEntry e{1, {0, 1}};
  BinaryWriter w;
  e.EncodeTo(&w);
  {
    LocationEntry decoded;
    BinaryReader r{Slice(w.buffer().data(), w.buffer().size() - 2)};
    EXPECT_FALSE(decoded.DecodeFrom(&r).ok());
  }
  {
    // Claimed replica count larger than the remaining payload.
    BinaryWriter bad;
    bad.PutU64(1);
    bad.PutU32(1000);
    LocationEntry decoded;
    BinaryReader r{Slice(bad.buffer())};
    EXPECT_TRUE(decoded.DecodeFrom(&r).IsCorruption());
  }
}

// Location entries live in the in-memory DHT and are written by the same
// binary, so an entry without its refcount and content hash cannot exist.
TEST(LocationEntrySerdeTest, EntryWithoutRefsAndHashIsCorruption) {
  BinaryWriter w;
  w.PutU64(7);  // epoch
  w.PutU32(1);  // one provider
  w.PutU32(3);
  LocationEntry decoded;
  EXPECT_TRUE(DecodePayload(Slice(w.buffer()), &decoded).IsCorruption());
}

TEST(LocationEntrySerdeTest, ValidRequiresEpochAndProviders) {
  EXPECT_FALSE((LocationEntry{0, {1}}).valid());
  EXPECT_FALSE((LocationEntry{1, {}}).valid());
  EXPECT_TRUE((LocationEntry{1, {1}}).valid());
}

// --- Compare-and-swap: store and DHT client --------------------------------

TEST(KvStoreCasTest, ExpectAbsentCreatesOnce) {
  dht::KvStore store(4);
  bool applied = false, present = false;
  std::string current;
  ASSERT_TRUE(store.Cas(Slice("k"), Slice(), Slice("v1"), true, &applied,
                        &present, &current)
                  .ok());
  EXPECT_TRUE(applied);
  EXPECT_TRUE(present);
  EXPECT_EQ(current, "v1");
  // A second create loses and reports the stored bytes.
  ASSERT_TRUE(store.Cas(Slice("k"), Slice(), Slice("v2"), true, &applied,
                        &present, &current)
                  .ok());
  EXPECT_FALSE(applied);
  EXPECT_EQ(current, "v1");
}

TEST(KvStoreCasTest, ConditionalOverwrite) {
  dht::KvStore store(4);
  ASSERT_TRUE(store.Put(Slice("k"), Slice("v1")).ok());
  bool applied = false, present = false;
  std::string current;
  // Mismatched expectation: not applied, current carries the stored bytes.
  ASSERT_TRUE(store.Cas(Slice("k"), Slice("zz"), Slice("v2"), false, &applied,
                        &present, &current)
                  .ok());
  EXPECT_FALSE(applied);
  EXPECT_TRUE(present);
  EXPECT_EQ(current, "v1");
  // Matching expectation installs.
  ASSERT_TRUE(store.Cas(Slice("k"), Slice("v1"), Slice("v2"), false, &applied,
                        &present, &current)
                  .ok());
  EXPECT_TRUE(applied);
  EXPECT_EQ(current, "v2");
  // CAS on a missing key: not applied, not present.
  ASSERT_TRUE(store.Cas(Slice("gone"), Slice("v1"), Slice("v2"), false,
                        &applied, &present, &current)
                  .ok());
  EXPECT_FALSE(applied);
  EXPECT_FALSE(present);
  EXPECT_TRUE(current.empty());
}

class DhtCasTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; i++) {
      auto svc = std::make_shared<dht::DhtService>();
      services_.push_back(svc);
      std::string addr = "inproc://dht-" + std::to_string(i);
      ASSERT_TRUE(net_.Serve(addr, svc).ok());
      addresses_.push_back(addr);
    }
  }

  rpc::InProcNetwork net_;
  std::vector<std::shared_ptr<dht::DhtService>> services_;
  std::vector<std::string> addresses_;
};

TEST_F(DhtCasTest, CreateThenConditionalChain) {
  dht::DhtClient client(&net_, addresses_);
  auto r = client.CasAsync(Slice("k"), Slice(), Slice("a"), true).Wait();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->applied);
  r = client.CasAsync(Slice("k"), Slice("a"), Slice("b"), false).Wait();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->applied);
  // Stale expectation after the chain advanced.
  r = client.CasAsync(Slice("k"), Slice("a"), Slice("c"), false).Wait();
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->applied);
  EXPECT_EQ(r->current, "b");
  auto v = client.GetAsync(Slice("k")).Wait();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "b");
}

TEST_F(DhtCasTest, AppliedCasPropagatesToReplicas) {
  dht::DhtClientOptions opts;
  opts.replication = 2;
  dht::DhtClient client(&net_, addresses_, opts);
  auto r = client.CasAsync(Slice("rk"), Slice(), Slice("v"), true).Wait();
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->applied);
  // The winning value lands on both placement replicas.
  auto st = client.TotalStatsAsync().Wait();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->keys, 2u);
}

// --- LocationIndex ---------------------------------------------------------

class LocationIndexTest : public DhtCasTest {
 protected:
  void SetUp() override {
    DhtCasTest::SetUp();
    dht_ = std::make_unique<dht::DhtClient>(&net_, addresses_);
  }

  std::unique_ptr<dht::DhtClient> dht_;
};

/// Publishes a fresh page's entry as a writer's DHT wave does: the put,
/// then the note that seeds `index`'s cache.
Status Publish(dht::DhtClient* dht, LocationIndex* index, const PageId& pid,
               std::vector<ProviderId> providers) {
  LocationEntry entry = LocationIndex::FreshEntry(std::move(providers));
  Status s = dht->MultiPutAsync({LocationIndex::PublishPut(pid, entry)})
                 .Wait()
                 .status();
  if (s.ok()) index->NotePublished(pid, entry);
  return s;
}

/// `e` with its replica set replaced, as the rebuilder moves a page.
LocationEntry Moved(LocationEntry e, std::vector<ProviderId> providers) {
  e.providers = std::move(providers);
  return e;
}

TEST_F(LocationIndexTest, PublishResolvesFromCacheThenFromDht) {
  LocationIndex index(dht_.get(), 8);
  PageId pid{1, 1};
  ASSERT_TRUE(Publish(dht_.get(), &index, pid, {2, 4}).ok());
  auto e = index.ResolveAsync(pid).Wait();
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->epoch, 1u);
  EXPECT_EQ(e->providers, (std::vector<ProviderId>{2, 4}));
  LocationIndexStats st = index.GetStats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 0u);
  // Invalidate: the next resolve misses the cache but refetches the entry.
  index.Invalidate(pid);
  e = index.ResolveAsync(pid).Wait();
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->providers, (std::vector<ProviderId>{2, 4}));
  st = index.GetStats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.invalidations, 1u);
}

TEST_F(LocationIndexTest, UnknownPageIsNotFound) {
  LocationIndex index(dht_.get(), 8);
  EXPECT_TRUE(index.ResolveAsync(PageId{9, 9}).Wait().status().IsNotFound());
}

TEST_F(LocationIndexTest, CompareAndSwapBumpsEpochAndDetectsConflict) {
  LocationIndex index(dht_.get(), 8);
  PageId pid{3, 1};
  ASSERT_TRUE(Publish(dht_.get(), &index, pid, {0, 1}).ok());
  LocationEntry e1{1, {0, 1}};
  auto e2 = index.CompareAndSwapEntryAsync(pid, e1, Moved(e1, {0, 2})).Wait();
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e2->epoch, 2u);
  EXPECT_EQ(e2->providers, (std::vector<ProviderId>{0, 2}));
  // Stale expectation: a concurrent relocation already won.
  EXPECT_TRUE(index.CompareAndSwapEntryAsync(pid, e1, Moved(e1, {0, 3}))
                  .Wait()
                  .status()
                  .IsAborted());
  // Entry deleted underneath: NotFound, distinct from the conflict case.
  ASSERT_TRUE(dht_->DeleteAsync(Slice(LocationKey(pid))).Wait().ok());
  index.Invalidate(pid);
  EXPECT_TRUE(index.CompareAndSwapEntryAsync(pid, *e2, Moved(*e2, {0, 3}))
                  .Wait()
                  .status()
                  .IsNotFound());
}

TEST_F(LocationIndexTest, ConcurrentAdjustRefsAllLand) {
  // N adopters bump one page's refcount at once, each through its own
  // index (as separate clients would). Every lost CAS means another bump
  // won, so N-1 retries are enough for every call to land exactly once.
  constexpr int kAdopters = 8;
  PageId pid{5, 1};
  LocationIndex publisher(dht_.get(), 0);
  ASSERT_TRUE(Publish(dht_.get(), &publisher, pid, {0, 1}).ok());
  std::vector<Status> results(kAdopters);
  std::vector<std::thread> threads;
  for (int i = 0; i < kAdopters; i++) {
    threads.emplace_back([&, i] {
      LocationIndex index(dht_.get(), 8);
      results[i] =
          index.AdjustRefsAsync(pid, +1, kAdopters - 1).Wait().status();
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : results) EXPECT_TRUE(s.ok()) << s.ToString();
  auto e = publisher.ResolveAsync(pid).Wait();
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->refs, uint32_t{kAdopters + 1});
  EXPECT_EQ(e->epoch, uint64_t{kAdopters + 1});
}

TEST_F(LocationIndexTest, CacheEvictsAtCapacityButDhtStillServes) {
  LocationIndex index(dht_.get(), 2);
  for (uint64_t i = 1; i <= 3; i++) {
    ASSERT_TRUE(Publish(dht_.get(), &index, PageId{4, i}, {0}).ok());
  }
  // The oldest entry was evicted: resolving it misses but refetches.
  auto e = index.ResolveAsync(PageId{4, 1}).Wait();
  ASSERT_TRUE(e.ok());
  EXPECT_GE(index.GetStats().misses, 1u);
}

// --- PageLocationTable -----------------------------------------------------

TEST(PageLocationTableTest, RecordLookupForget) {
  PageLocationTable table;
  PageId pid{1, 1};
  table.Record(pid, LocationEntry{1, {0, 2}});
  LocationEntry e;
  ASSERT_TRUE(table.Lookup(pid, &e));
  EXPECT_EQ(e.providers, (std::vector<ProviderId>{0, 2}));
  EXPECT_EQ(table.size(), 1u);
  table.Forget(pid);
  EXPECT_FALSE(table.Lookup(pid, &e));
  EXPECT_EQ(table.size(), 0u);
}

TEST(PageLocationTableTest, StaleEpochIgnored) {
  PageLocationTable table;
  PageId pid{1, 2};
  table.Record(pid, LocationEntry{3, {5}});
  // An out-of-order report with an older epoch must not roll back the move.
  table.Record(pid, LocationEntry{2, {4}});
  LocationEntry e;
  ASSERT_TRUE(table.Lookup(pid, &e));
  EXPECT_EQ(e.epoch, 3u);
  EXPECT_EQ(e.providers, (std::vector<ProviderId>{5}));
}

TEST(PageLocationTableTest, PagesOnAndCountOn) {
  PageLocationTable table;
  table.Record(PageId{1, 1}, LocationEntry{1, {0, 1}});
  table.Record(PageId{1, 2}, LocationEntry{1, {1, 2}});
  table.Record(PageId{1, 3}, LocationEntry{1, {2, 0}});
  EXPECT_EQ(table.CountOn(1), 2u);
  EXPECT_EQ(table.CountOn(3), 0u);
  auto on0 = table.PagesOn(0);
  EXPECT_EQ(on0.size(), 2u);
  EXPECT_EQ(table.Snapshot().size(), 3u);
}

// --- Rebuilder: direct RunOnePass scenarios --------------------------------

class RebuilderTest : public ::testing::Test {
 protected:
  static constexpr size_t kProviders = 4;

  void SetUp() override {
    for (size_t i = 0; i < kProviders; i++) {
      auto svc = std::make_shared<provider::ProviderService>(
          provider::MakeMemoryPageStore());
      std::string addr = "inproc://prov-" + std::to_string(i);
      ASSERT_TRUE(net_.Serve(addr, svc).ok());
      provider_services_.push_back(svc);
      provider_addresses_.push_back(addr);
      ProviderView v;
      v.id = static_cast<ProviderId>(i);
      v.address = addr;
      v.alive = v.up = true;
      views_.push_back(v);
    }
    auto dht_svc = std::make_shared<dht::DhtService>();
    ASSERT_TRUE(net_.Serve("inproc://dht", dht_svc).ok());
    dht_addresses_ = {"inproc://dht"};
    dht_ = std::make_unique<dht::DhtClient>(&net_, dht_addresses_);
    index_ = std::make_unique<LocationIndex>(dht_.get(), 0);
    pages_ = std::make_unique<provider::ProviderClient>(&net_);
  }

  Rebuilder NewRebuilder(RebuildOptions options = {}) {
    return Rebuilder(
        &table_, [this] { return views_; }, &net_, dht_addresses_,
        dht::DhtClientOptions{}, options);
  }

  /// Stores page bytes on every member, publishes the epoch-1 location
  /// entry and records it in the table — the state a client write leaves.
  void InstallPage(const PageId& pid, const std::vector<ProviderId>& members,
                   const std::string& bytes) {
    for (ProviderId m : members) {
      ASSERT_TRUE(
          pages_->WritePageAsync(provider_addresses_[m], pid, Slice(bytes))
              .Wait()
              .ok());
    }
    ASSERT_TRUE(Publish(dht_.get(), index_.get(), pid, members).ok());
    table_.Record(pid, LocationEntry{1, members});
  }

  void MarkDead(ProviderId id) {
    views_[id].alive = false;
    views_[id].up = false;
  }

  void MarkDraining(ProviderId id) {
    views_[id].alive = false;
    views_[id].draining = true;
  }

  rpc::InProcNetwork net_;
  std::vector<std::shared_ptr<provider::ProviderService>> provider_services_;
  std::vector<std::string> provider_addresses_;
  std::vector<ProviderView> views_;
  std::vector<std::string> dht_addresses_;
  std::unique_ptr<dht::DhtClient> dht_;
  std::unique_ptr<LocationIndex> index_;
  std::unique_ptr<provider::ProviderClient> pages_;
  PageLocationTable table_;
};

TEST_F(RebuilderTest, HealsDeadMemberOntoDifferentLiveProvider) {
  PageId pid{1, 1};
  InstallPage(pid, {0, 1}, "payload");
  MarkDead(1);
  Rebuilder r = NewRebuilder();
  EXPECT_EQ(r.RunOnePass(), 1u);
  EXPECT_EQ(r.GetStats().pages_rebuilt, 1u);

  // The committed entry names the survivor plus a fresh live provider.
  LocationEntry e;
  ASSERT_TRUE(table_.Lookup(pid, &e));
  EXPECT_EQ(e.epoch, 2u);
  EXPECT_EQ(e.providers, (std::vector<ProviderId>{0, 2}));
  auto stored = index_->ResolveAsync(pid).Wait();
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*stored, e);
  // And the bytes were actually copied there.
  auto out = pages_->ReadPageAsync(provider_addresses_[2], pid, 0, 0).Wait();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "payload");
  // A second pass finds nothing to do.
  EXPECT_EQ(r.RunOnePass(), 0u);
}

TEST_F(RebuilderTest, DrainMovesPageOffAndDeletesVacatedCopy) {
  PageId pid{2, 1};
  InstallPage(pid, {0}, "drainme");
  MarkDraining(0);
  Rebuilder r = NewRebuilder();
  EXPECT_EQ(r.RunOnePass(), 1u);
  EXPECT_EQ(r.GetStats().pages_drained, 1u);

  LocationEntry e;
  ASSERT_TRUE(table_.Lookup(pid, &e));
  EXPECT_EQ(e.epoch, 2u);
  EXPECT_EQ(e.providers, (std::vector<ProviderId>{1}));
  auto out = pages_->ReadPageAsync(provider_addresses_[1], pid, 0, 0).Wait();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "drainme");
  // The draining provider is still up, so its vacated copy was deleted.
  EXPECT_TRUE(pages_->ReadPageAsync(provider_addresses_[0], pid, 0, 0)
                  .Wait()
                  .status()
                  .IsNotFound());
  EXPECT_EQ(table_.CountOn(0), 0u);
}

TEST_F(RebuilderTest, RebalanceSpreadsLoadOntoEmptyProvider) {
  // Three pages on provider 0, the rest empty: spread is 3 vs 0, so the
  // rebalance pass must migrate pages until the spread closes to one.
  for (uint64_t i = 1; i <= 3; i++) {
    InstallPage(PageId{3, i}, {0}, "rb");
  }
  Rebuilder r = NewRebuilder();
  size_t moved = r.RunOnePass();
  EXPECT_GE(moved, 1u);
  EXPECT_EQ(r.GetStats().pages_rebalanced, moved);
  EXPECT_LT(table_.CountOn(0), 3u);
}

TEST_F(RebuilderTest, RebalanceDisabledLeavesImbalance) {
  for (uint64_t i = 1; i <= 3; i++) {
    InstallPage(PageId{4, i}, {0}, "rb");
  }
  RebuildOptions options;
  options.rebalance = false;
  Rebuilder r = NewRebuilder(options);
  EXPECT_EQ(r.RunOnePass(), 0u);
  EXPECT_EQ(table_.CountOn(0), 3u);
}

TEST_F(RebuilderTest, StaleTableEntryLosesCasAndAdoptsFreshEntry) {
  // The DHT already holds the healed entry (epoch 2, {0, 2}) — say another
  // rebuilder moved the page — while this rebuilder's table is stale at
  // epoch 1 with the dead member still listed.
  PageId pid{5, 1};
  InstallPage(pid, {0, 1}, "cas");
  LocationEntry healed = {1, {0, 1}};
  auto installed =
      index_->CompareAndSwapEntryAsync(pid, healed, Moved(healed, {0, 2}))
          .Wait();
  ASSERT_TRUE(installed.ok());
  ASSERT_TRUE(pages_->WritePageAsync(provider_addresses_[2], pid, Slice("cas"))
                  .Wait()
                  .ok());
  table_.Record(pid, LocationEntry{1, {0, 1}});  // stale: pre-heal view
  MarkDead(1);

  Rebuilder r = NewRebuilder();
  EXPECT_EQ(r.RunOnePass(), 0u);
  RebuildStats st = r.GetStats();
  EXPECT_EQ(st.cas_conflicts, 1u);
  EXPECT_EQ(st.pages_rebuilt, 0u);
  // The conflict taught the table the authoritative entry.
  LocationEntry e;
  ASSERT_TRUE(table_.Lookup(pid, &e));
  EXPECT_EQ(e, *installed);
}

TEST_F(RebuilderTest, NoEligibleTargetCountsFailedMove) {
  // Every live provider already holds the page: nowhere to move it.
  PageId pid{6, 1};
  InstallPage(pid, {0, 1}, "stuck");
  MarkDead(1);
  MarkDead(2);
  MarkDead(3);
  Rebuilder r = NewRebuilder();
  EXPECT_EQ(r.RunOnePass(), 0u);
  EXPECT_GE(r.GetStats().failed_moves, 1u);
  LocationEntry e;
  ASSERT_TRUE(table_.Lookup(pid, &e));
  EXPECT_EQ(e.epoch, 1u);  // entry untouched
}

TEST_F(RebuilderTest, DeletedEntryIsForgotten) {
  // The table remembers a page whose location entry was deleted (the page
  // was garbage-collected): the pass must drop it, not resurrect it.
  PageId pid{7, 1};
  InstallPage(pid, {0, 1}, "gone");
  ASSERT_TRUE(dht_->DeleteAsync(Slice(LocationKey(pid))).Wait().ok());
  MarkDead(1);
  Rebuilder r = NewRebuilder();
  EXPECT_EQ(r.RunOnePass(), 0u);
  LocationEntry e;
  EXPECT_FALSE(table_.Lookup(pid, &e));
}

TEST_F(RebuilderTest, MoveBudgetBoundsEachPass) {
  for (uint64_t i = 1; i <= 3; i++) {
    InstallPage(PageId{8, i}, {0, 1}, "budget");
  }
  MarkDead(1);
  RebuildOptions options;
  options.max_moves_per_pass = 1;
  options.rebalance = false;
  Rebuilder r = NewRebuilder(options);
  EXPECT_EQ(r.RunOnePass(), 1u);
  EXPECT_EQ(r.RunOnePass(), 1u);
  EXPECT_EQ(r.RunOnePass(), 1u);
  EXPECT_EQ(r.RunOnePass(), 0u);
  EXPECT_EQ(r.GetStats().pages_rebuilt, 3u);
  EXPECT_EQ(table_.CountOn(1), 0u);
}

}  // namespace
}  // namespace blobseer::locator
