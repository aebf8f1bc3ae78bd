// Crash-recovery and compaction tests for the log-structured page store.
//
// These tests damage segment files on disk the way a power loss or bit rot
// would (truncated tail record, flipped payload byte) and assert the
// recovery contract from docs/pagelog_format.md: the intact record prefix
// of every segment is served, the torn tail is dropped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "pagelog/format.h"
#include "pagelog/log_page_store.h"
#include "provider/page_store.h"

namespace blobseer::pagelog {
namespace {

using provider::PageStore;

// 1000-byte payloads against a 4 KiB segment target: 16-byte segment header
// plus three 1032-byte records fit, the fourth forces a rotation, so every
// segment holds exactly three pages and the layout is fully deterministic.
constexpr uint64_t kSegTarget = 4096;
constexpr size_t kPayload = 1000;

std::string PageContent(uint64_t n) {
  std::string s(kPayload, '\0');
  for (size_t i = 0; i < s.size(); i++)
    s[i] = static_cast<char>('a' + (n + i) % 26);
  return s;
}

class PageLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/bs_pagelog_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  void Open(LogPageStoreOptions opts) {
    store_.reset();
    opts_ = opts;
    store_ = MakeLogPageStore(dir_, opts);
  }
  void Reopen() { Open(opts_); }

  std::vector<std::string> SegmentFiles() const {
    std::vector<std::string> files;
    for (const auto& e : std::filesystem::directory_iterator(dir_)) {
      files.push_back(e.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  static void TruncateFile(const std::string& path, uint64_t size) {
    ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(size)), 0);
  }

  static void FlipByte(const std::string& path, uint64_t offset) {
    FILE* f = ::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    int c = ::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    ::fputc(c ^ 0x40, f);
    ASSERT_EQ(::fclose(f), 0);
  }

  void PutPages(uint64_t n, uint64_t id_hi = 1) {
    for (uint64_t i = 0; i < n; i++) {
      ASSERT_TRUE(store_->Put(PageId{id_hi, i}, Slice(PageContent(i))).ok())
          << "page " << i;
    }
  }

  LogPageStoreOptions opts_;
  std::unique_ptr<PageStore> store_;
  std::string dir_;
};

TEST_F(PageLogTest, RotationProducesDeterministicSegments) {
  LogPageStoreOptions opts;
  opts.segment_target_bytes = kSegTarget;
  Open(opts);
  PutPages(10);
  auto st = store_->GetStats();
  EXPECT_EQ(st.pages, 10u);
  EXPECT_EQ(st.segments, 4u);  // 3 + 3 + 3 + 1
  EXPECT_EQ(SegmentFiles().size(), 4u);
  for (uint64_t i = 0; i < 10; i++) {
    std::string out;
    ASSERT_TRUE(store_->Read(PageId{1, i}, 0, 0, &out).ok());
    EXPECT_EQ(out, PageContent(i));
  }
}

TEST_F(PageLogTest, CleanReopenRebuildsIndex) {
  LogPageStoreOptions opts;
  opts.segment_target_bytes = kSegTarget;
  Open(opts);
  PutPages(10);
  Reopen();
  auto st = store_->GetStats();
  EXPECT_EQ(st.pages, 10u);
  EXPECT_EQ(st.segments, 4u);
  for (uint64_t i = 0; i < 10; i++) {
    std::string out;
    ASSERT_TRUE(store_->Read(PageId{1, i}, 0, 0, &out).ok());
    EXPECT_EQ(out, PageContent(i));
  }
  // The store stays appendable after recovery.
  ASSERT_TRUE(store_->Put(PageId{1, 10}, Slice(PageContent(10))).ok());
  std::string out;
  ASSERT_TRUE(store_->Read(PageId{1, 10}, 0, 0, &out).ok());
  EXPECT_EQ(out, PageContent(10));
}

TEST_F(PageLogTest, TornTailRecordIsTruncatedOnReopen) {
  LogPageStoreOptions opts;
  opts.segment_target_bytes = kSegTarget;
  Open(opts);
  PutPages(10);  // last segment holds exactly page 9
  store_.reset();

  // Chop one byte off the last segment: page 9's record is now torn the way
  // a power loss mid-append leaves it.
  std::string last = SegmentFiles().back();
  uint64_t torn_size = std::filesystem::file_size(last) - 1;
  TruncateFile(last, torn_size);

  Reopen();
  auto st = store_->GetStats();
  EXPECT_EQ(st.pages, 9u);
  std::string out;
  for (uint64_t i = 0; i < 9; i++) {
    ASSERT_TRUE(store_->Read(PageId{1, i}, 0, 0, &out).ok());
    EXPECT_EQ(out, PageContent(i));
  }
  EXPECT_TRUE(store_->Read(PageId{1, 9}, 0, 0, &out).IsNotFound());
  // The torn bytes were physically dropped and the id is writable again.
  EXPECT_EQ(std::filesystem::file_size(last), torn_size - (kRecordHeaderSize +
                                                           kPayload - 1));
  ASSERT_TRUE(store_->Put(PageId{1, 9}, Slice(PageContent(9))).ok());
  ASSERT_TRUE(store_->Read(PageId{1, 9}, 0, 0, &out).ok());
  EXPECT_EQ(out, PageContent(9));
}

TEST_F(PageLogTest, CrcFlipDropsRecordAndSegmentTail) {
  LogPageStoreOptions opts;
  opts.segment_target_bytes = kSegTarget;
  Open(opts);
  PutPages(10);
  store_.reset();

  // Flip a payload byte of the FIRST record of the first segment. Recovery
  // must drop that record and everything after it in the same segment
  // (pages 0..2) while later segments (pages 3..9) stay intact.
  std::string first = SegmentFiles().front();
  FlipByte(first, kSegmentHeaderSize + kRecordHeaderSize + 17);

  Reopen();
  auto st = store_->GetStats();
  EXPECT_EQ(st.pages, 7u);
  std::string out;
  for (uint64_t i = 0; i < 3; i++) {
    EXPECT_TRUE(store_->Read(PageId{1, i}, 0, 0, &out).IsNotFound())
        << "page " << i;
  }
  for (uint64_t i = 3; i < 10; i++) {
    ASSERT_TRUE(store_->Read(PageId{1, i}, 0, 0, &out).ok()) << "page " << i;
    EXPECT_EQ(out, PageContent(i));
  }
}

TEST_F(PageLogTest, CompactionReclaimsDeadSegments) {
  LogPageStoreOptions opts;
  opts.segment_target_bytes = kSegTarget;
  opts.compact_min_dead_ratio = 0.5;
  opts.sync = false;
  Open(opts);
  PutPages(12);  // segments: [0,1,2] [3,4,5] [6,7,8] [9,10,11](active)
  // Segment 1 goes fully dead, segment 2 two-thirds dead, segment 3 stays.
  for (uint64_t i : {0, 1, 2, 3, 4}) {
    ASSERT_TRUE(store_->Delete(PageId{1, i}).ok());
  }
  auto before = store_->GetStats();
  EXPECT_EQ(before.pages, 7u);
  EXPECT_EQ(before.dead_bytes, 5u * kPayload);

  ASSERT_TRUE(store_->Compact().ok());
  auto after = store_->GetStats();
  EXPECT_EQ(after.pages, 7u);
  EXPECT_EQ(after.compactions, 2u);
  EXPECT_EQ(after.dead_bytes, 0u);  // page 5 was rewritten, victims unlinked
  std::string out;
  for (uint64_t i = 5; i < 12; i++) {
    ASSERT_TRUE(store_->Read(PageId{1, i}, 0, 0, &out).ok()) << "page " << i;
    EXPECT_EQ(out, PageContent(i));
  }

  // Compaction state must also survive a crash/reopen: the copied page is
  // served, the deleted ones stay deleted.
  Reopen();
  EXPECT_EQ(store_->GetStats().pages, 7u);
  for (uint64_t i = 0; i < 5; i++) {
    EXPECT_TRUE(store_->Read(PageId{1, i}, 0, 0, &out).IsNotFound());
  }
  for (uint64_t i = 5; i < 12; i++) {
    ASSERT_TRUE(store_->Read(PageId{1, i}, 0, 0, &out).ok()) << "page " << i;
    EXPECT_EQ(out, PageContent(i));
  }
}

TEST_F(PageLogTest, CrashedCompactionDuplicateCannotResurrectDeletedPage) {
  LogPageStoreOptions opts;
  opts.segment_target_bytes = kSegTarget;
  opts.compact_min_dead_ratio = 0.5;
  Open(opts);
  PutPages(4);  // segments: [0,1,2] [3](active)
  store_.reset();

  // Forge the on-disk artifact of a compaction that copied page 0 into the
  // last segment and crashed before unlinking the first: the same put
  // record now exists in two segments.
  std::string last = SegmentFiles().back();
  std::string payload = PageContent(0);
  char header[kRecordHeaderSize];
  EncodeRecordHeader(kRecordPut, PageId{1, 0}, Slice(payload), header);
  FILE* f = ::fopen(last.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(::fwrite(header, 1, kRecordHeaderSize, f), kRecordHeaderSize);
  ASSERT_EQ(::fwrite(payload.data(), 1, payload.size(), f), payload.size());
  ASSERT_EQ(::fclose(f), 0);

  Reopen();  // index points at the first incarnation, duplicate is tracked
  EXPECT_EQ(store_->GetStats().pages, 4u);

  // Delete page 0, then compact the first segment (now fully dead) away.
  // The tombstone must cover the duplicate too, or the next recovery
  // resurrects the deleted page from it.
  for (uint64_t i : {0, 1, 2}) {
    ASSERT_TRUE(store_->Delete(PageId{1, i}).ok());
  }
  ASSERT_TRUE(store_->Compact().ok());
  EXPECT_EQ(store_->GetStats().compactions, 1u);

  Reopen();
  std::string out;
  EXPECT_TRUE(store_->Read(PageId{1, 0}, 0, 0, &out).IsNotFound());
  EXPECT_EQ(store_->GetStats().pages, 1u);
  ASSERT_TRUE(store_->Read(PageId{1, 3}, 0, 0, &out).ok());
  EXPECT_EQ(out, PageContent(3));
}

TEST_F(PageLogTest, CompactionPreservesReadsUnderConcurrentPuts) {
  // With sync on, the writers' group-commit leader also races the
  // rotations and compactions that seal and drop segments.
  for (bool sync : {false, true}) {
    SCOPED_TRACE(sync ? "sync" : "nosync");
    store_.reset();
    std::filesystem::remove_all(dir_);
    LogPageStoreOptions opts;
    opts.segment_target_bytes = 2048;
    opts.compact_min_dead_ratio = 0.3;
    opts.sync = sync;
    Open(opts);

    // Prefill and punch holes so there is plenty to compact.
    constexpr uint64_t kPrefill = 60;
    for (uint64_t i = 0; i < kPrefill; i++) {
      ASSERT_TRUE(store_->Put(PageId{1, i}, Slice(PageContent(i))).ok());
    }
    for (uint64_t i = 0; i < kPrefill; i += 2) {
      ASSERT_TRUE(store_->Delete(PageId{1, i}).ok());
    }

    constexpr int kWriters = 2;
    constexpr uint64_t kPerWriter = 100;
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; w++) {
      writers.emplace_back([&, w] {
        for (uint64_t i = 0; i < kPerWriter; i++) {
          PageId id{9, static_cast<uint64_t>(w) * kPerWriter + i};
          ASSERT_TRUE(store_->Put(id, Slice(PageContent(id.lo))).ok());
          std::string out;
          ASSERT_TRUE(store_->Read(id, 0, 0, &out).ok());
          ASSERT_EQ(out, PageContent(id.lo));
        }
      });
    }
    for (int round = 0; round < 10; round++) {
      ASSERT_TRUE(store_->Compact().ok());
    }
    for (auto& t : writers) t.join();
    ASSERT_TRUE(store_->Compact().ok());

    auto st = store_->GetStats();
    EXPECT_EQ(st.pages, kPrefill / 2 + kWriters * kPerWriter);
    EXPECT_GE(st.compactions, 1u);
    std::string out;
    for (uint64_t i = 1; i < kPrefill; i += 2) {
      ASSERT_TRUE(store_->Read(PageId{1, i}, 0, 0, &out).ok()) << "page " << i;
      EXPECT_EQ(out, PageContent(i));
    }
    for (uint64_t i = 0; i < kWriters * kPerWriter; i++) {
      ASSERT_TRUE(store_->Read(PageId{9, i}, 0, 0, &out).ok()) << "page " << i;
      EXPECT_EQ(out, PageContent(i));
    }

    // Everything above survives recovery too.
    Reopen();
    EXPECT_EQ(store_->GetStats().pages, kPrefill / 2 + kWriters * kPerWriter);
    for (uint64_t i = 1; i < kPrefill; i += 2) {
      ASSERT_TRUE(store_->Read(PageId{1, i}, 0, 0, &out).ok()) << "page " << i;
    }
  }
}

TEST_F(PageLogTest, GroupCommitCoalescesConcurrentSyncs) {
  LogPageStoreOptions opts;
  opts.sync = true;
  Open(opts);

  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 25;
  std::string payload(512, 'g');
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; i++) {
        PageId id{static_cast<uint64_t>(t + 1), i};
        ASSERT_TRUE(store_->Put(id, Slice(payload)).ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  auto st = store_->GetStats();
  EXPECT_EQ(st.pages, kThreads * kPerThread);
  EXPECT_EQ(st.writes, kThreads * kPerThread);
  // Every put was durably acknowledged, yet group commit means the store
  // never needs more than one fdatasync per write (and under real
  // concurrency issues far fewer).
  EXPECT_GE(st.syncs, 1u);
  EXPECT_LE(st.syncs, st.writes + 2);  // +segment-create dir syncs

  Reopen();
  EXPECT_EQ(store_->GetStats().pages, kThreads * kPerThread);
}

TEST_F(PageLogTest, IoStatsTrackAppendsAndRecovery) {
  Open(LogPageStoreOptions{});
  constexpr uint64_t kPages = 200;
  PutPages(kPages);
  auto st = store_->GetStats();
  EXPECT_GE(st.bytes_written, kPages * kPayload);
  EXPECT_EQ(st.recovery_us, 0u) << "fresh dir, nothing to scan";

  // A reopen scans every record; the scan must be timed and the reads
  // counted.
  Reopen();
  std::string out;
  ASSERT_TRUE(store_->Read(PageId{1, 0}, 0, 0, &out).ok());
  st = store_->GetStats();
  EXPECT_GT(st.recovery_us, 0u);
  EXPECT_GT(st.read_syscalls, 0u);
}

TEST_F(PageLogTest, ByteAndReadCountersMatchTheFiles) {
  LogPageStoreOptions opts;
  opts.segment_target_bytes = kSegTarget;
  Open(opts);
  PutPages(5);  // the fourth page rotates into a second segment
  ASSERT_TRUE(store_->Delete(PageId{1, 1}).ok());
  ASSERT_TRUE(store_->Delete(PageId{1, 3}).ok());

  // Every byte the append path wrote (segment headers, put records,
  // tombstones) is in a segment file, and nothing else is.
  auto st = store_->GetStats();
  ASSERT_EQ(st.segments, 2u);
  uint64_t file_bytes = 0;
  for (const auto& f : SegmentFiles())
    file_bytes += std::filesystem::file_size(f);
  EXPECT_EQ(st.bytes_written, file_bytes);

  // A Read costs exactly one pread, whole-page or ranged, in a sealed
  // segment or the active one.
  std::string out;
  for (uint64_t i : {0, 2, 4}) {
    uint64_t before = store_->GetStats().read_syscalls;
    ASSERT_TRUE(store_->Read(PageId{1, i}, 0, 0, &out).ok()) << "page " << i;
    EXPECT_EQ(store_->GetStats().read_syscalls, before + 1) << "page " << i;
  }
  uint64_t before = store_->GetStats().read_syscalls;
  ASSERT_TRUE(store_->Read(PageId{1, 4}, 100, 50, &out).ok());
  EXPECT_EQ(out, PageContent(4).substr(100, 50));
  EXPECT_EQ(store_->GetStats().read_syscalls, before + 1);
}

TEST_F(PageLogTest, OpenFailureIsReportedByOperations) {
  // A plain file where the store directory should be makes open fail; the
  // error must surface through the API instead of crashing.
  FILE* f = ::fopen(dir_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ::fclose(f);
  auto store = MakeLogPageStore(dir_);
  std::string out;
  EXPECT_TRUE(store->Put(PageId{1, 1}, Slice("x")).IsIOError());
  EXPECT_TRUE(store->Read(PageId{1, 1}, 0, 0, &out).IsIOError());
  EXPECT_TRUE(store->Delete(PageId{1, 1}).IsIOError());
  EXPECT_TRUE(store->Compact().IsIOError());
  ::remove(dir_.c_str());
}

}  // namespace
}  // namespace blobseer::pagelog
