// Data provider tests: every page-store engine behind one parametrized
// fixture (memory, null, log) plus the RPC service.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "pagelog/log_page_store.h"
#include "provider/client.h"
#include "provider/page_store.h"
#include "provider/service.h"
#include "rpc/inproc.h"

namespace blobseer::provider {
namespace {

struct BackendParam {
  const char* name;
  bool stores_content;  ///< false for the size-only null engine
  bool durable;         ///< survives destroy + reopen on the same directory
};

void PrintTo(const BackendParam& p, std::ostream* os) { *os << p.name; }

std::unique_ptr<PageStore> MakeBackend(const std::string& name,
                                       const std::string& dir) {
  if (name == "null") return MakeNullPageStore();
  if (name == "log") return pagelog::MakeLogPageStore(dir);
  return MakeMemoryPageStore();
}

class PageStoreTest : public ::testing::TestWithParam<BackendParam> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/bs_pages_" + GetParam().name + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    store_ = MakeBackend(GetParam().name, dir_);
  }
  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Destroys and reopens the store on the same directory (durable engines).
  void Reopen() {
    store_.reset();
    store_ = MakeBackend(GetParam().name, dir_);
  }

  bool stores_content() const { return GetParam().stores_content; }

  std::unique_ptr<PageStore> store_;
  std::string dir_;
};

TEST_P(PageStoreTest, PutReadWholeAndRange) {
  PageId id{1, 1};
  ASSERT_TRUE(store_->Put(id, Slice("0123456789")).ok());
  std::string out;
  ASSERT_TRUE(store_->Read(id, 0, 0, &out).ok());  // len 0 = whole object
  ASSERT_EQ(out.size(), 10u);
  if (stores_content()) {
    EXPECT_EQ(out, "0123456789");
  }
  ASSERT_TRUE(store_->Read(id, 3, 4, &out).ok());
  ASSERT_EQ(out.size(), 4u);
  if (stores_content()) {
    EXPECT_EQ(out, "3456");
  }
}

TEST_P(PageStoreTest, ReadBeyondObjectFails) {
  PageId id{1, 2};
  ASSERT_TRUE(store_->Put(id, Slice("abc")).ok());
  std::string out;
  EXPECT_TRUE(store_->Read(id, 0, 4, &out).IsOutOfRange());
  EXPECT_TRUE(store_->Read(id, 4, 0, &out).IsOutOfRange());
}

TEST_P(PageStoreTest, ReadRangeOverflowRejected) {
  PageId id{1, 5};
  ASSERT_TRUE(store_->Put(id, Slice("0123456789")).ok());
  std::string out;
  // offset + len wraps around uint64; must be OutOfRange, not a huge read.
  EXPECT_TRUE(store_->Read(id, 8, UINT64_MAX - 4, &out).IsOutOfRange());
  EXPECT_TRUE(store_->Read(id, UINT64_MAX, 2, &out).IsOutOfRange());
}

TEST_P(PageStoreTest, MissingPageIsNotFound) {
  std::string out;
  EXPECT_TRUE(store_->Read(PageId{9, 9}, 0, 0, &out).IsNotFound());
}

TEST_P(PageStoreTest, IdempotentReplayAllowedRewriteRejected) {
  PageId id{1, 3};
  ASSERT_TRUE(store_->Put(id, Slice("samesize")).ok());
  // Same id, same size: idempotent replay of a retried RPC.
  EXPECT_TRUE(store_->Put(id, Slice("samesize")).ok());
  // Same id, different size: protocol violation (pages are immutable).
  EXPECT_TRUE(store_->Put(id, Slice("longer-content")).IsAlreadyExists());
}

TEST_P(PageStoreTest, DeleteFreesSpace) {
  PageId id{1, 4};
  ASSERT_TRUE(store_->Put(id, Slice("xxxxxxxx")).ok());
  EXPECT_EQ(store_->GetStats().pages, 1u);
  EXPECT_EQ(store_->GetStats().bytes, 8u);
  ASSERT_TRUE(store_->Delete(id).ok());
  EXPECT_EQ(store_->GetStats().pages, 0u);
  EXPECT_EQ(store_->GetStats().bytes, 0u);
  std::string out;
  EXPECT_TRUE(store_->Read(id, 0, 0, &out).IsNotFound());
  ASSERT_TRUE(store_->Delete(id).ok());  // idempotent
}

TEST_P(PageStoreTest, ManyPages) {
  for (uint64_t i = 0; i < 200; i++) {
    ASSERT_TRUE(store_->Put(PageId{7, i}, Slice("payload")).ok());
  }
  EXPECT_EQ(store_->GetStats().pages, 200u);
  std::string out;
  ASSERT_TRUE(store_->Read(PageId{7, 137}, 2, 3, &out).ok());
  if (stores_content()) {
    EXPECT_EQ(out, "ylo");
  }
}

TEST_P(PageStoreTest, CompactIsAlwaysSafe) {
  for (uint64_t i = 0; i < 16; i++) {
    ASSERT_TRUE(store_->Put(PageId{8, i}, Slice("compactable")).ok());
  }
  for (uint64_t i = 0; i < 8; i++) {
    ASSERT_TRUE(store_->Delete(PageId{8, i}).ok());
  }
  ASSERT_TRUE(store_->Compact().ok());
  EXPECT_EQ(store_->GetStats().pages, 8u);
  std::string out;
  ASSERT_TRUE(store_->Read(PageId{8, 12}, 0, 0, &out).ok());
  if (stores_content()) {
    EXPECT_EQ(out, "compactable");
  }
}

TEST_P(PageStoreTest, PersistsAcrossReopen) {
  if (!GetParam().durable) GTEST_SKIP() << "engine is not durable";
  ASSERT_TRUE(store_->Put(PageId{3, 3}, Slice("durable")).ok());
  ASSERT_TRUE(store_->Put(PageId{3, 4}, Slice("")).ok());  // empty page
  Reopen();
  std::string out;
  ASSERT_TRUE(store_->Read(PageId{3, 3}, 0, 0, &out).ok());
  EXPECT_EQ(out, "durable");
  ASSERT_TRUE(store_->Read(PageId{3, 4}, 0, 0, &out).ok());
  EXPECT_EQ(out, "");
  EXPECT_EQ(store_->GetStats().pages, 2u);
  // Immutability survives the reopen too.
  EXPECT_TRUE(store_->Put(PageId{3, 3}, Slice("other-size")).IsAlreadyExists());
}

TEST_P(PageStoreTest, DeletePersistsAcrossReopen) {
  if (!GetParam().durable) GTEST_SKIP() << "engine is not durable";
  ASSERT_TRUE(store_->Put(PageId{4, 1}, Slice("kept")).ok());
  ASSERT_TRUE(store_->Put(PageId{4, 2}, Slice("gone")).ok());
  ASSERT_TRUE(store_->Delete(PageId{4, 2}).ok());
  Reopen();
  std::string out;
  ASSERT_TRUE(store_->Read(PageId{4, 1}, 0, 0, &out).ok());
  EXPECT_EQ(out, "kept");
  EXPECT_TRUE(store_->Read(PageId{4, 2}, 0, 0, &out).IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(
    Engines, PageStoreTest,
    ::testing::Values(BackendParam{"memory", true, false},
                      BackendParam{"null", false, false},
                      BackendParam{"log", true, true}),
    [](const ::testing::TestParamInfo<BackendParam>& info) {
      return std::string(info.param.name);
    });

TEST(ProviderServiceTest, EndToEndOverRpc) {
  rpc::InProcNetwork net;
  auto svc = std::make_shared<ProviderService>(MakeMemoryPageStore());
  ASSERT_TRUE(net.Serve("inproc://prov", svc).ok());

  ProviderClient client(&net);
  PageId id{5, 5};
  ASSERT_TRUE(client.WritePageAsync("inproc://prov", id, Slice("hello page"))
                  .Wait()
                  .ok());
  auto out = client.ReadPageAsync("inproc://prov", id, 6, 4).Wait();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "page");
  auto st = client.FetchStatsAsync("inproc://prov").Wait();
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->pages, 1u);
  EXPECT_EQ(st->bytes, 10u);
  ASSERT_TRUE(client.DeletePageAsync("inproc://prov", id).Wait().ok());
  EXPECT_TRUE(client.ReadPageAsync("inproc://prov", id, 0, 0)
                  .Wait()
                  .status()
                  .IsNotFound());
}

TEST(ProviderServiceTest, ExtendedStatsTravelTheRpc) {
  // Every counter, including the log-structured backend's extension fields,
  // must survive the Stats RPC round trip.
  std::string dir = ::testing::TempDir() + "/bs_stats_rpc";
  std::filesystem::remove_all(dir);
  rpc::InProcNetwork net;
  auto svc =
      std::make_shared<ProviderService>(pagelog::MakeLogPageStore(dir));
  ASSERT_TRUE(net.Serve("inproc://prov", svc).ok());

  ProviderClient client(&net);
  ASSERT_TRUE(
      client.WritePageAsync("inproc://prov", PageId{1, 1}, Slice("abcd"))
          .Wait()
          .ok());
  ASSERT_TRUE(
      client.WritePageAsync("inproc://prov", PageId{1, 2}, Slice("efgh"))
          .Wait()
          .ok());
  ASSERT_TRUE(
      client.DeletePageAsync("inproc://prov", PageId{1, 1}).Wait().ok());

  auto stats = client.FetchStatsAsync("inproc://prov").Wait();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(*stats, svc->store().GetStats());
  // The log backend actually populates the extension fields.
  EXPECT_EQ(stats->deletes, 1u);
  EXPECT_GE(stats->segments, 1u);
  EXPECT_GT(stats->dead_bytes, 0u);
  EXPECT_GE(stats->syncs, 1u);
  EXPECT_GT(stats->bytes_written, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace blobseer::provider
