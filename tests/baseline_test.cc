// Centralized-metadata baseline correctness (the ablation comparator).
#include <gtest/gtest.h>

#include <thread>

#include "baseline/central_meta.h"
#include "rpc/inproc.h"

namespace blobseer::baseline {
namespace {

class BaselineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    svc_ = std::make_shared<CentralMetaService>();
    ASSERT_TRUE(net_.Serve("inproc://central", svc_).ok());
    client_ = std::make_unique<CentralMetaClient>(&net_, "inproc://central");
  }

  rpc::InProcNetwork net_;
  std::shared_ptr<CentralMetaService> svc_;
  std::unique_ptr<CentralMetaClient> client_;
};

TEST_F(BaselineTest, CreateAndUpdateVersions) {
  auto id = client_->CreateAsync(64).Wait();
  ASSERT_TRUE(id.ok());
  std::vector<PageRef> refs = {{PageId{1, 1}, 0}, {PageId{1, 2}, 1}};
  auto r1 = client_->UpdateAsync(*id, 0, refs, 128).Wait();
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->version, 1u);
  EXPECT_EQ(r1->new_size, 128u);

  std::vector<PageRef> refs2 = {{PageId{2, 1}, 2}};
  auto r2 = client_->UpdateAsync(*id, 1, refs2, 128).Wait();
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->version, 2u);

  // Old version keeps its layout; new version sees the overwrite.
  auto l1 = client_->GetLayoutAsync(*id, 1, 0, 2).Wait();
  auto l2 = client_->GetLayoutAsync(*id, 2, 0, 2).Wait();
  ASSERT_TRUE(l1.ok() && l2.ok());
  EXPECT_EQ((*l1)[1].pid, (PageId{1, 2}));
  EXPECT_EQ((*l2)[1].pid, (PageId{2, 1}));
  EXPECT_EQ((*l2)[0].pid, (PageId{1, 1}));
}

TEST_F(BaselineTest, GetRecentTracksLatest) {
  auto id = client_->CreateAsync(64).Wait();
  ASSERT_TRUE(id.ok());
  auto r0 = client_->GetRecentAsync(*id).Wait();
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(r0->version, 0u);
  ASSERT_TRUE(
      client_->UpdateAsync(*id, 0, {{PageId{1, 1}, 0}}, 64).Wait().ok());
  auto r1 = client_->GetRecentAsync(*id).Wait();
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->version, 1u);
  EXPECT_EQ(r1->size, 64u);
}

TEST_F(BaselineTest, ValidationErrors) {
  EXPECT_TRUE(client_->CreateAsync(7).Wait().status().IsInvalidArgument());
  EXPECT_TRUE(client_->UpdateAsync(99, 0, {}, 0).Wait().status().IsNotFound());
  auto id = client_->CreateAsync(64).Wait();
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(
      client_->GetLayoutAsync(*id, 5, 0, 1).Wait().status().IsNotFound());
  ASSERT_TRUE(
      client_->UpdateAsync(*id, 0, {{PageId{1, 1}, 0}}, 64).Wait().ok());
  EXPECT_TRUE(
      client_->GetLayoutAsync(*id, 1, 0, 2).Wait().status().IsOutOfRange());
}

TEST_F(BaselineTest, MetadataGrowsLinearlyPerVersion) {
  // The structural contrast with BlobSeer: K versions of an N-page blob
  // hold O(K*N) page refs centrally.
  auto id = client_->CreateAsync(64).Wait();
  ASSERT_TRUE(id.ok());
  const uint64_t kPages = 64;
  std::vector<PageRef> initial;
  for (uint64_t i = 0; i < kPages; i++) initial.push_back({PageId{1, i}, 0});
  ASSERT_TRUE(client_->UpdateAsync(*id, 0, initial, kPages * 64).Wait().ok());
  for (int k = 0; k < 9; k++) {
    ASSERT_TRUE(client_
                    ->UpdateAsync(*id, k % kPages,
                                  {{PageId{2, uint64_t(k)}, 0}}, kPages * 64)
                    .Wait()
                    .ok());
  }
  CentralMetaStats st = svc_->GetStats();
  EXPECT_EQ(st.versions, 10u);
  EXPECT_EQ(st.page_refs, 10 * kPages);
}

TEST_F(BaselineTest, ConcurrentUpdatersSerialize) {
  auto id = client_->CreateAsync(64).Wait();
  ASSERT_TRUE(id.ok());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&, t] {
      CentralMetaClient c(&net_, "inproc://central");
      for (uint64_t i = 0; i < 25; i++) {
        auto r = c.UpdateAsync(*id, 0,
                               {{PageId{uint64_t(t), i}, ProviderId(t)}}, 64)
                     .Wait();
        if (!r.ok()) failures++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto recent = client_->GetRecentAsync(*id).Wait();
  ASSERT_TRUE(recent.ok());
  EXPECT_EQ(recent->version, 100u);
}

}  // namespace
}  // namespace blobseer::baseline
