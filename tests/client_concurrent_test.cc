// Heavy-concurrency tests: the paper's central claim is that READ, WRITE
// and APPEND from many clients proceed in parallel with no application-
// level synchronization while remaining atomic and totally ordered
// (sections 4.2, 4.3). These tests replay the resulting version history
// against the serial reference model.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <thread>

#include "core/cluster.h"
#include "reference_blob.h"

namespace blobseer {
namespace {

using client::Blob;
using client::BlobClient;
using testing::ReferenceBlob;
using testing::TestPayload;

class ConcurrentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::ClusterOptions opts;
    opts.num_providers = 6;
    opts.num_meta = 6;
    auto cluster = core::EmbeddedCluster::Start(opts);
    ASSERT_TRUE(cluster.ok());
    cluster_ = std::move(cluster).ValueUnsafe();
  }

  std::unique_ptr<BlobClient> NewClient() {
    auto c = cluster_->NewClient();
    EXPECT_TRUE(c.ok());
    return std::move(c).ValueUnsafe();
  }

  std::unique_ptr<core::EmbeddedCluster> cluster_;
};

TEST_F(ConcurrentTest, ConcurrentAppendersProduceASerialHistory) {
  auto owner = NewClient();
  auto id = owner->Create(64);
  ASSERT_TRUE(id.ok());

  constexpr int kWriters = 8;
  constexpr int kAppendsEach = 12;
  std::mutex mu;
  std::map<Version, std::string> by_version;

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      auto client = NewClient();
      for (int i = 0; i < kAppendsEach; i++) {
        std::string data = TestPayload(w * 1000 + i, 30 + (w * 7 + i) % 120);
        auto v = client->Append(*id, Slice(data));
        ASSERT_TRUE(v.ok()) << v.status().ToString();
        std::lock_guard<std::mutex> lock(mu);
        ASSERT_TRUE(by_version.emplace(*v, data).second)
            << "duplicate version " << *v;
      }
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_EQ(by_version.size(), size_t{kWriters * kAppendsEach});
  // Versions are dense 1..N.
  EXPECT_EQ(by_version.begin()->first, 1u);
  EXPECT_EQ(by_version.rbegin()->first, Version{kWriters * kAppendsEach});

  ASSERT_TRUE(owner->Sync(*id, by_version.rbegin()->first).ok());

  // Replaying appends in version order must reproduce every snapshot.
  ReferenceBlob ref;
  for (auto& [v, data] : by_version) {
    ASSERT_EQ(ref.ApplyAppend(data), v);
  }
  for (Version v = 1; v <= ref.latest(); v += 5) {
    std::string out;
    ASSERT_TRUE(owner->Read(*id, v, 0, ref.Size(v), &out).ok()) << "v" << v;
    ASSERT_EQ(out, ref.Contents(v)) << "v" << v;
  }
  std::string out;
  ASSERT_TRUE(
      owner->Read(*id, ref.latest(), 0, ref.Size(ref.latest()), &out).ok());
  ASSERT_EQ(out, ref.Contents(ref.latest()));
}

TEST_F(ConcurrentTest, ConcurrentOverlappingWritesStayAtomic) {
  // Two writer mixes: writes only, and writes beside appends. In-flight
  // appends grow the root while unaligned writes label their borders, so
  // one update's labels come partly from the version manager's partial
  // border set and partly from the walk of the published tree.
  for (bool with_appends : {false, true}) {
    SCOPED_TRACE(with_appends ? "writes and appends" : "writes only");
    auto owner = NewClient();
    auto id = owner->Create(64);
    ASSERT_TRUE(id.ok());
    // Pre-size the blob so all writers hit a valid range.
    Blob blob(owner.get(), *id);
    ASSERT_TRUE(blob.AppendSync(TestPayload(0, 1024)).ok());

    constexpr int kWriters = 6;
    constexpr int kWritesEach = 10;
    struct Update {
      bool append;
      uint64_t offset;
      std::string data;
    };
    std::mutex mu;
    std::map<Version, Update> by_version;

    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; w++) {
      threads.emplace_back([&, w] {
        auto client = NewClient();
        for (int i = 0; i < kWritesEach; i++) {
          // Overlapping unaligned ranges across writers; every third op
          // of the odd writers appends in the mixed history.
          const bool append = with_appends && w % 2 == 1 && i % 3 == 0;
          uint64_t off = (w * 131 + i * 61) % 900;
          std::string data = TestPayload(w * 100 + i, 40 + (i * 17) % 80);
          auto v = append ? client->Append(*id, Slice(data))
                          : client->Write(*id, Slice(data), off);
          ASSERT_TRUE(v.ok()) << v.status().ToString();
          std::lock_guard<std::mutex> lock(mu);
          by_version.emplace(*v, Update{append, off, data});
        }
      });
    }
    for (auto& t : threads) t.join();

    Version last = by_version.rbegin()->first;
    ASSERT_TRUE(owner->Sync(*id, last).ok());

    ReferenceBlob ref;
    ref.ApplyAppend(TestPayload(0, 1024));
    for (auto& [v, op] : by_version) {
      ASSERT_EQ(op.append ? ref.ApplyAppend(op.data)
                          : ref.ApplyWrite(op.data, op.offset),
                v);
    }
    // Every intermediate snapshot equals the serial replay: updates applied
    // atomically, in version order, with no lost or interleaved bytes.
    for (Version v = 1; v <= ref.latest(); v++) {
      std::string out;
      ASSERT_TRUE(owner->Read(*id, v, 0, ref.Size(v), &out).ok()) << "v" << v;
      ASSERT_EQ(out, ref.Contents(v)) << "v" << v;
    }
  }
}

TEST_F(ConcurrentTest, ReadersRunAgainstActiveWriters) {
  auto owner = NewClient();
  auto id = owner->Create(128);
  ASSERT_TRUE(id.ok());
  Blob blob(owner.get(), *id);
  ASSERT_TRUE(blob.AppendSync(TestPayload(0, 2048)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> read_failures{0};
  std::atomic<int> reads_done{0};

  // Readers continuously read whatever GET_RECENT reports; every read must
  // return a complete, consistent snapshot (correct size, no errors).
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; r++) {
    readers.emplace_back([&] {
      auto client = NewClient();
      while (!stop.load()) {
        auto v = client->GetRecent(*id);
        if (!v.ok()) {
          read_failures++;
          continue;
        }
        std::string out;
        Status s = client->Read(*id, v->version, 0, v->size, &out);
        if (!s.ok() || out.size() != v->size) read_failures++;
        reads_done++;
      }
    });
  }

  auto writer = NewClient();
  ReferenceBlob ref;
  ref.ApplyAppend(TestPayload(0, 2048));
  for (int i = 1; i <= 30; i++) {
    std::string data = TestPayload(i, 64 + (i * 29) % 400);
    if (i % 3 == 0) {
      uint64_t off = (i * 173) % 1500;
      ASSERT_TRUE(writer->Write(*id, Slice(data), off).ok());
      ref.ApplyWrite(data, off);
    } else {
      ASSERT_TRUE(writer->Append(*id, Slice(data)).ok());
      ref.ApplyAppend(data);
    }
  }
  ASSERT_TRUE(writer->Sync(*id, ref.latest()).ok());
  // On a loaded machine the reader threads (each constructing its own
  // client) may not have completed a single loop by the time the scripted
  // writes finish; give them a bounded window before stopping.
  Stopwatch warmup;
  while (reads_done.load() == 0 && warmup.ElapsedSeconds() < 10.0) {
    RealClock::Default()->SleepForMicros(1000);
  }
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(read_failures.load(), 0);
  EXPECT_GT(reads_done.load(), 0);
  // Final contents match the reference.
  std::string out;
  ASSERT_TRUE(
      owner->Read(*id, ref.latest(), 0, ref.Size(ref.latest()), &out).ok());
  EXPECT_EQ(out, ref.Contents(ref.latest()));
}

TEST_F(ConcurrentTest, ManyBlobsUpdatedConcurrently) {
  constexpr int kBlobs = 6;
  auto owner = NewClient();
  std::vector<BlobId> ids;
  for (int i = 0; i < kBlobs; i++) {
    auto id = owner->Create(64);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  std::vector<std::thread> threads;
  for (int b = 0; b < kBlobs; b++) {
    threads.emplace_back([&, b] {
      auto client = NewClient();
      ReferenceBlob ref;
      for (int i = 0; i < 15; i++) {
        std::string data = TestPayload(b * 100 + i, 50);
        auto v = client->Append(ids[b], Slice(data));
        ASSERT_TRUE(v.ok());
        ASSERT_EQ(*v, ref.ApplyAppend(data));
      }
      ASSERT_TRUE(client->Sync(ids[b], ref.latest()).ok());
      std::string out;
      ASSERT_TRUE(
          client->Read(ids[b], ref.latest(), 0, 15 * 50, &out).ok());
      ASSERT_EQ(out, ref.Contents(ref.latest()));
    });
  }
  for (auto& t : threads) t.join();
}

TEST_F(ConcurrentTest, SharedClientIsThreadSafe) {
  auto client = NewClient();
  auto id = client->Create(64);
  ASSERT_TRUE(id.ok());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int w = 0; w < 6; w++) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 10; i++) {
        std::string data = TestPayload(w * 50 + i, 77);
        if (!client->Append(*id, Slice(data)).ok()) failures++;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(client->Sync(*id, 60).ok());
  auto v = client->GetRecent(*id);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->version, 60u);
  EXPECT_EQ(v->size, 60u * 77u);
}

}  // namespace
}  // namespace blobseer
