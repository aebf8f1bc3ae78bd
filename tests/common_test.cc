// Unit tests for the common substrate: Status/Result, Slice, serde, math,
// hashing, RNG, string utilities, executors, stats field lists, and the
// bench JSON emitter built on them.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "bench_util.h"

#include "common/executor.h"
#include "common/hash.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/result.h"
#include "common/serde.h"
#include "common/slice.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/types.h"

namespace blobseer {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::NotFound("missing blob");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing blob");
  EXPECT_EQ(s.ToString(), "NotFound: missing blob");
}

TEST(StatusTest, CopyAndMovePreserveState) {
  Status s = Status::IOError("disk");
  Status copy = s;
  EXPECT_TRUE(copy.IsIOError());
  EXPECT_EQ(copy.message(), "disk");
  Status moved = std::move(copy);
  EXPECT_TRUE(moved.IsIOError());
}

TEST(StatusTest, WithContextPrefixesMessage) {
  Status s = Status::Corruption("bad node").WithContext("read v7");
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(s.message(), "read v7: bad node");
  EXPECT_TRUE(Status::OK().WithContext("x").ok());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 13; c++) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, ReturnNotOkMacro) {
  auto fails = []() -> Status {
    BS_RETURN_NOT_OK(Status::TimedOut("t"));
    return Status::OK();
  };
  EXPECT_TRUE(fails().IsTimedOut());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::NotFound("x");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    BS_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 8);
  EXPECT_TRUE(outer(true).status().IsInternal());
}

TEST(SliceTest, BasicViews) {
  std::string s = "hello world";
  Slice sl(s);
  EXPECT_EQ(sl.size(), 11u);
  EXPECT_EQ(sl.SubSlice(6, 5).ToString(), "world");
  sl.RemovePrefix(6);
  EXPECT_EQ(sl.ToString(), "world");
  EXPECT_TRUE(Slice("abc") == Slice("abc"));
  EXPECT_TRUE(Slice("abc") != Slice("abd"));
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_LT(Slice("ab").Compare(Slice("abc")), 0);
}

TEST(ExtentTest, IntersectionAndContainment) {
  Extent a{0, 10};
  Extent b{5, 10};
  Extent c{10, 5};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(b.Intersects(c));
  EXPECT_TRUE(a.Contains(Extent{2, 3}));
  EXPECT_FALSE(a.Contains(b));
  EXPECT_EQ(a.Clip(b), (Extent{5, 5}));
  EXPECT_TRUE(a.Clip(c).empty());
}

TEST(MathTest, Pow2Helpers) {
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(64));
  EXPECT_FALSE(IsPow2(0));
  EXPECT_FALSE(IsPow2(12));
  EXPECT_EQ(Pow2Ceil(1), 1u);
  EXPECT_EQ(Pow2Ceil(3), 4u);
  EXPECT_EQ(Pow2Ceil(64), 64u);
  EXPECT_EQ(Pow2Ceil(65), 128u);
  EXPECT_EQ(FloorLog2(1), 0u);
  EXPECT_EQ(FloorLog2(64), 6u);
  EXPECT_EQ(FloorLog2(65), 6u);
  EXPECT_EQ(CeilDiv(10, 3), 4u);
  EXPECT_EQ(CeilDiv(9, 3), 3u);
  EXPECT_EQ(AlignDown(13, 4), 12u);
  EXPECT_EQ(AlignUp(13, 4), 16u);
}

TEST(SerdeTest, RoundTripScalars) {
  BinaryWriter w;
  w.PutU8(7);
  w.PutU16(65535);
  w.PutU32(123456);
  w.PutU64(1ull << 60);
  w.PutBool(true);
  w.PutDouble(3.25);
  w.PutString("abc");
  w.PutExtent(Extent{5, 9});
  w.PutPageId(PageId{11, 22});

  BinaryReader r{Slice(w.buffer())};
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  bool b;
  double d;
  std::string s;
  Extent e;
  PageId p;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU16(&u16).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetBool(&b).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  ASSERT_TRUE(r.GetExtent(&e).ok());
  ASSERT_TRUE(r.GetPageId(&p).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 65535);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 1ull << 60);
  EXPECT_TRUE(b);
  EXPECT_EQ(d, 3.25);
  EXPECT_EQ(s, "abc");
  EXPECT_EQ(e, (Extent{5, 9}));
  EXPECT_EQ(p, (PageId{11, 22}));
}

TEST(SerdeTest, TruncationDetected) {
  BinaryWriter w;
  w.PutU64(1);
  BinaryReader r{Slice(w.buffer().data(), 4)};
  uint64_t v;
  EXPECT_TRUE(r.GetU64(&v).IsCorruption());
}

TEST(SerdeTest, TrailingBytesDetected) {
  BinaryWriter w;
  w.PutU32(1);
  w.PutU32(2);
  BinaryReader r{Slice(w.buffer())};
  uint32_t v;
  ASSERT_TRUE(r.GetU32(&v).ok());
  EXPECT_TRUE(r.ExpectEnd().IsCorruption());
}

TEST(SerdeTest, BytesViewBorrowsInput) {
  BinaryWriter w;
  w.PutBytes(Slice("payload"));
  BinaryReader r{Slice(w.buffer())};
  Slice v;
  ASSERT_TRUE(r.GetBytesView(&v).ok());
  EXPECT_EQ(v.ToString(), "payload");
}

TEST(HashTest, Deterministic) {
  EXPECT_EQ(Fnv1a64(Slice("key")), Fnv1a64(Slice("key")));
  EXPECT_NE(Fnv1a64(Slice("key")), Fnv1a64(Slice("kez")));
  EXPECT_NE(Mix64(1), Mix64(2));
}

TEST(HashTest, Crc32cKnownVectors) {
  // RFC 3720 appendix B test vector.
  EXPECT_EQ(Crc32c(Slice("123456789")), 0xE3069283u);
  EXPECT_EQ(Crc32c(Slice("")), 0u);
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(Slice(zeros)), 0x8A9136AAu);
}

TEST(HashTest, Crc32cExtendMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t crc = Crc32cExtend(0, data.data(), 10);
  crc = Crc32cExtend(crc, data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc, Crc32c(Slice(data)));
}

TEST(HashTest, Crc32cHardwarePathMatchesPortable) {
  // Crc32cExtend dispatches to SSE4.2 CRC32 instructions where the CPU has
  // them; whatever path runs must agree with the table-driven portable
  // implementation on every length (the hardware path handles 8/4/2/1-byte
  // tails differently).
  std::string data(1025, '\0');
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<char>(i * 131 + 17);
  }
  for (size_t len : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 63u, 64u, 255u, 1024u,
                     1025u}) {
    EXPECT_EQ(Crc32cExtend(0, data.data(), len),
              internal::Crc32cExtendPortable(0, data.data(), len))
        << "len " << len;
    EXPECT_EQ(Crc32cExtend(0xDEADBEEF, data.data(), len),
              internal::Crc32cExtendPortable(0xDEADBEEF, data.data(), len))
        << "len " << len;
  }
}

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; i++) {
    uint64_t v = rng.Range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    EXPECT_LT(rng.NextDouble(), 1.0);
  }
}

TEST(StringUtilTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
  EXPECT_EQ(HumanRateMBps(117.5e6), "117.5 MB/s");
}

TEST(StringUtilTest, SplitJoin) {
  auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(StrJoin({"a", "b"}, "+"), "a+b");
  EXPECT_TRUE(StartsWith("inproc://x", "inproc://"));
  EXPECT_FALSE(StartsWith("in", "inproc://"));
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; i++) pool.Submit([&] { count++; });
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ExecutorTest, SerialRunsInOrder) {
  SerialExecutor ex;
  std::vector<size_t> order;
  ASSERT_TRUE(ex.ParallelFor(5, 0, [&](size_t i) {
                  order.push_back(i);
                  return Status::OK();
                }).ok());
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ExecutorTest, ThreadPoolExecutorCoversAllIndices) {
  ThreadPoolExecutor ex(8);
  std::mutex mu;
  std::set<size_t> seen;
  ASSERT_TRUE(ex.ParallelFor(200, 16, [&](size_t i) {
                  std::lock_guard<std::mutex> lock(mu);
                  seen.insert(i);
                  return Status::OK();
                }).ok());
  EXPECT_EQ(seen.size(), 200u);
}

TEST(ExecutorTest, ReportsFirstError) {
  ThreadPoolExecutor ex(4);
  Status s = ex.ParallelFor(50, 8, [&](size_t i) {
    return i == 17 ? Status::Corruption("17") : Status::OK();
  });
  EXPECT_TRUE(s.IsCorruption());
}

TEST(ExecutorTest, EmptyBatchIsOk) {
  ThreadPoolExecutor ex(2);
  EXPECT_TRUE(ex.ParallelFor(0, 4, [](size_t) {
                  return Status::Internal("never");
                }).ok());
}

struct TwoCounters {
  uint64_t a = 0;
  uint64_t b = 0;
  BS_FIELDS(TwoCounters, a, b)
};

TEST(StatsTest, AddSumsAndForEachVisitsEveryFieldInOrder) {
  TwoCounters x{1, 2};
  stats::Add(&x, TwoCounters{10, 20});
  std::string seen;
  stats::ForEach(x, [&seen](const char* name, uint64_t value) {
    seen += std::string(name) + "=" + std::to_string(value) + " ";
  });
  EXPECT_EQ(seen, "a=11 b=22 ");
  EXPECT_EQ(bench::StatsJson(x).Render(), R"({"a": 11, "b": 22})");
}

TEST(BenchJsonTest, NonFiniteNumbersAndControlCharactersStayValidJson) {
  bench::JsonArray arr;
  arr.AddDouble(std::nan(""));
  arr.AddDouble(-INFINITY);
  arr.AddDouble(1.5);
  bench::JsonObject o;
  o.PutDouble("nan", std::nan(""));
  o.PutDouble("inf", INFINITY);
  o.PutDouble("ninf", -INFINITY);
  o.PutString("s", "a\nb\x01" "c\"");
  o.PutArray("arr", arr);
  EXPECT_EQ(o.Render(),
            R"({"nan": null, "inf": null, "ninf": null, )"
            R"("s": "a\nb\u0001c\"", "arr": [null, null, 1.5]})");
}

}  // namespace
}  // namespace blobseer
