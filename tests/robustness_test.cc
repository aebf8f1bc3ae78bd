// Robustness: decoder fuzzing (malformed bytes must fail cleanly, never
// crash), protocol misuse, and a mixed read/write/branch stress run with
// full reference checking.
#include <gtest/gtest.h>

#include <thread>
#include <typeinfo>

#include "baseline/central_meta.h"
#include "client/blob_client.h"
#include "common/blob_descriptor.h"
#include "common/random.h"
#include "core/cluster.h"
#include "dht/messages.h"
#include "dht/store.h"
#include "lifecycle/retention.h"
#include "locator/location.h"
#include "meta/node.h"
#include "pmanager/messages.h"
#include "provider/messages.h"
#include "provider/page_store.h"
#include "reference_blob.h"
#include "rpc/call.h"
#include "vmanager/core.h"
#include "vmanager/messages.h"

namespace blobseer {
namespace {

using testing::ReferenceBlob;
using testing::TestPayload;

// --- Wire golden bytes -----------------------------------------------------

// One populated instance of every record that crosses a process or lands in
// the DHT, and of every stats payload.
template <typename T>
T Sample();

template <>
dht::PutRequest Sample() { return {"key", "value"}; }
template <>
dht::GetRequest Sample() { return {"key"}; }
template <>
dht::GetResponse Sample() { return {"value"}; }
template <>
dht::DeleteRequest Sample() { return {"key"}; }
template <>
dht::CasRequest Sample() { return {"k", "old", "new", true}; }
template <>
dht::CasResponse Sample() { return {false, true, "cur"}; }
template <>
dht::MultiGetRequest Sample() { return {{"a", "bc"}}; }
template <>
dht::MultiGetResponse Sample() { return {{1, 0, 1}, {"x", "yz"}}; }
template <>
dht::MultiPutRequest Sample() { return {{{"k", "v"}, {"ab", ""}}}; }
template <>
dht::StoreStats Sample() { return {1, 2, 3, 4, 5, 6}; }

template <>
provider::WriteRequest Sample() { return {PageId{1, 2}, "data"}; }
template <>
provider::ReadRequest Sample() { return {PageId{3, 4}, 5, 6}; }
template <>
provider::ReadResponse Sample() { return {"page"}; }
template <>
provider::DeleteRequest Sample() { return {PageId{7, 8}}; }
template <>
provider::PageStoreStats Sample() {
  return {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
}

template <>
pmanager::RegisterRequest Sample() { return {"host:1", 100}; }
template <>
pmanager::RegisterResponse Sample() { return {9}; }
template <>
pmanager::HeartbeatRequest Sample() { return {3, 10, 4096}; }
template <>
pmanager::AllocateRequest Sample() { return {4, 2}; }
template <>
pmanager::AllocateResponse Sample() { return {{{1, 2}, {3}}}; }
template <>
pmanager::DirectoryEntry Sample() { return {2, "a:2"}; }
template <>
pmanager::DirectoryResponse Sample() { return {{{1, "a:1"}, {2, "b:2"}}}; }
template <>
pmanager::PageLocationInfo Sample() { return {PageId{5, 6}, 2, {1, 3}}; }
template <>
pmanager::ReportLocationsRequest Sample() {
  return {{Sample<pmanager::PageLocationInfo>()}, {PageId{9, 10}}};
}
template <>
pmanager::DecommissionRequest Sample() { return {4}; }
template <>
pmanager::DecommissionResponse Sample() { return {12, true}; }
template <>
pmanager::PmStats Sample() {
  return {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
}

template <>
AncestrySegment Sample() { return {3, 17}; }
template <>
BlobDescriptor Sample() { return {5, 4096, {{3, 17}, {5, kMaxVersion}}}; }
template <>
lifecycle::RetentionPolicy Sample() { return {4, 60000000}; }

template <>
vmanager::BorderEntry Sample() { return {Extent{64, 32}, 7}; }
template <>
vmanager::AssignTicket Sample() {
  return {9, 128, 64, 128, 192, 8, 128, {{Extent{0, 128}, 8}}};
}
template <>
vmanager::AbortOutcome Sample() {
  return {true, Sample<vmanager::AssignTicket>()};
}
template <>
vmanager::VersionInfo Sample() { return {6, 512, 1000, true, false, true}; }
template <>
vmanager::VmStats Sample() { return {1, 2, 3, 4, 5, 6}; }
template <>
vmanager::CreateBlobRequest Sample() { return {4096}; }
template <>
vmanager::CreateBlobResponse Sample() { return {Sample<BlobDescriptor>()}; }
template <>
vmanager::OpenBlobRequest Sample() { return {5}; }
template <>
vmanager::OpenBlobResponse Sample() {
  return {Sample<BlobDescriptor>(), 3, 300};
}
template <>
vmanager::AssignRequest Sample() { return {5, true, 0, 100}; }
template <>
vmanager::AssignResponse Sample() { return {Sample<vmanager::AssignTicket>()}; }
template <>
vmanager::NotifyRequest Sample() { return {5, 9}; }
template <>
vmanager::AbortRequest Sample() { return {5, 10}; }
template <>
vmanager::AbortResponse Sample() { return {Sample<vmanager::AbortOutcome>()}; }
template <>
vmanager::GetRecentRequest Sample() { return {5}; }
template <>
vmanager::GetRecentResponse Sample() { return {9, 192}; }
template <>
vmanager::GetSizeRequest Sample() { return {5, 2}; }
template <>
vmanager::GetSizeResponse Sample() { return {64}; }
template <>
vmanager::AwaitRequest Sample() { return {5, 11, 250000}; }
template <>
vmanager::AwaitResponse Sample() { return {true}; }
template <>
vmanager::BranchRequest Sample() { return {5, 4}; }
template <>
vmanager::BranchResponse Sample() { return {Sample<BlobDescriptor>()}; }
template <>
vmanager::SetRetentionRequest Sample() {
  return {5, Sample<lifecycle::RetentionPolicy>()};
}
template <>
vmanager::GetRetentionRequest Sample() { return {5}; }
template <>
vmanager::GetRetentionResponse Sample() {
  return {Sample<lifecycle::RetentionPolicy>()};
}
template <>
vmanager::ListVersionsRequest Sample() { return {5}; }
template <>
vmanager::ListVersionsResponse Sample() {
  return {{Sample<vmanager::VersionInfo>(),
           {7, 640, 2000, false, true, false}}};
}
template <>
vmanager::DiscardVersionRequest Sample() { return {5, 6}; }
template <>
vmanager::ListBlobsResponse Sample() { return {{1, 5, 9}}; }

template <>
meta::PageFragment Sample() { return {PageId{1, 2}, 4, 5, 6}; }
template <>
locator::LocationEntry Sample() { return {7, {3, 1, 4}, 2, 11, 12}; }

template <>
baseline::PageRef Sample() { return {PageId{1, 2}, 3}; }
template <>
baseline::CreateRequest Sample() { return {64}; }
template <>
baseline::CreateResponse Sample() { return {5}; }
template <>
baseline::UpdateRequest Sample() {
  return {5, 2, 256, {Sample<baseline::PageRef>(), {PageId{4, 5}, 6}}};
}
template <>
baseline::UpdateResponse Sample() { return {3, 256}; }
template <>
baseline::LayoutRequest Sample() { return {5, 3, 1, 2}; }
template <>
baseline::LayoutResponse Sample() { return {{Sample<baseline::PageRef>()}}; }
template <>
baseline::RecentRequest Sample() { return {5}; }
template <>
baseline::RecentResponse Sample() { return {3, 256}; }

template <>
client::ClientStats Sample() {
  return {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15};
}

template <typename M>
std::string WireHex(const M& msg) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : EncodePayload(msg)) {
    hex += kDigits[c >> 4];
    hex += kDigits[c & 15];
  }
  return hex;
}

// The wire format, byte for byte: a change here is a protocol change.
TEST(WireGoldenTest, EveryRecordEncodesToPinnedBytes) {
  EXPECT_EQ(WireHex(Sample<dht::PutRequest>()),
            "030000006b65790500000076616c7565");
  EXPECT_EQ(WireHex(Sample<dht::GetRequest>()), "030000006b6579");
  EXPECT_EQ(WireHex(Sample<dht::GetResponse>()), "0500000076616c7565");
  EXPECT_EQ(WireHex(Sample<dht::DeleteRequest>()), "030000006b6579");
  EXPECT_EQ(WireHex(Sample<dht::CasRequest>()),
            "010000006b030000006f6c64030000006e657701");
  EXPECT_EQ(WireHex(Sample<dht::CasResponse>()), "000103000000637572");
  EXPECT_EQ(WireHex(Sample<dht::MultiGetRequest>()),
            "020000000100000061020000006263");
  EXPECT_EQ(WireHex(Sample<dht::MultiGetResponse>()),
            "0300000001000102000000010000007802000000797a");
  EXPECT_EQ(WireHex(Sample<dht::MultiPutRequest>()),
            "02000000010000006b0100000076020000006162"
            "00000000");
  EXPECT_EQ(WireHex(Sample<dht::StoreStats>()),
            "0100000000000000020000000000000003000000000000000400000000000000"
            "05000000000000000600000000000000");
  EXPECT_EQ(WireHex(Sample<provider::WriteRequest>()),
            "010000000000000002000000000000000400000064617461");
  EXPECT_EQ(WireHex(Sample<provider::ReadRequest>()),
            "0300000000000000040000000000000005000000000000000600000000000000");
  EXPECT_EQ(WireHex(Sample<provider::ReadResponse>()), "0400000070616765");
  EXPECT_EQ(WireHex(Sample<provider::DeleteRequest>()),
            "07000000000000000800000000000000");
  EXPECT_EQ(WireHex(Sample<provider::PageStoreStats>()),
            "0100000000000000020000000000000003000000000000000400000000000000"
            "0500000000000000060000000000000007000000000000000800000000000000"
            "09000000000000000a000000000000000b000000000000000c00000000000000");
  EXPECT_EQ(WireHex(Sample<pmanager::RegisterRequest>()),
            "06000000686f73743a316400000000000000");
  EXPECT_EQ(WireHex(Sample<pmanager::RegisterResponse>()), "09000000");
  EXPECT_EQ(WireHex(Sample<pmanager::HeartbeatRequest>()),
            "030000000a000000000000000010000000000000");
  EXPECT_EQ(WireHex(Sample<pmanager::AllocateRequest>()), "0400000002000000");
  EXPECT_EQ(WireHex(Sample<pmanager::AllocateResponse>()),
            "020000000200000001000000020000000100000003000000");
  EXPECT_EQ(WireHex(Sample<pmanager::DirectoryEntry>()),
            "0200000003000000613a32");
  EXPECT_EQ(WireHex(Sample<pmanager::DirectoryResponse>()),
            "020000000100000003000000613a310200000003000000623a32");
  EXPECT_EQ(WireHex(Sample<pmanager::PageLocationInfo>()),
            "0500000000000000060000000000000002000000000000000200000001000000"
            "03000000");
  EXPECT_EQ(WireHex(Sample<pmanager::ReportLocationsRequest>()),
            "0100000005000000000000000600000000000000020000000000000002000000"
            "01000000030000000100000009000000000000000a00000000000000");
  EXPECT_EQ(WireHex(Sample<pmanager::DecommissionRequest>()), "04000000");
  EXPECT_EQ(WireHex(Sample<pmanager::DecommissionResponse>()),
            "0c0000000000000001");
  EXPECT_EQ(WireHex(Sample<pmanager::PmStats>()),
            "0100000000000000020000000000000003000000000000000400000000000000"
            "0500000000000000060000000000000007000000000000000800000000000000"
            "09000000000000000a000000000000000b000000000000000c00000000000000"
            "0d000000000000000e000000000000000f00000000000000");
  EXPECT_EQ(WireHex(Sample<AncestrySegment>()),
            "03000000000000001100000000000000");
  EXPECT_EQ(WireHex(Sample<BlobDescriptor>()),
            "0500000000000000001000000000000002000000030000000000000011000000"
            "000000000500000000000000ffffffffffffffff");
  EXPECT_EQ(WireHex(Sample<lifecycle::RetentionPolicy>()),
            "040000000087930300000000");
  EXPECT_EQ(WireHex(Sample<vmanager::BorderEntry>()),
            "400000000000000020000000000000000700000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::AssignTicket>()),
            "0900000000000000800000000000000040000000000000008000000000000000"
            "c000000000000000080000000000000080000000000000000100000000000000"
            "0000000080000000000000000800000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::AbortOutcome>()),
            "0109000000000000008000000000000000400000000000000080000000000000"
            "00c0000000000000000800000000000000800000000000000001000000000000"
            "000000000080000000000000000800000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::VersionInfo>()),
            "06000000000000000002000000000000e803000000000000010001");
  EXPECT_EQ(WireHex(Sample<vmanager::VmStats>()),
            "0100000000000000020000000000000003000000000000000400000000000000"
            "05000000000000000600000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::CreateBlobRequest>()), "0010000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::CreateBlobResponse>()),
            "0500000000000000001000000000000002000000030000000000000011000000"
            "000000000500000000000000ffffffffffffffff");
  EXPECT_EQ(WireHex(Sample<vmanager::OpenBlobRequest>()), "0500000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::OpenBlobResponse>()),
            "0500000000000000001000000000000002000000030000000000000011000000"
            "000000000500000000000000ffffffffffffffff03000000000000002c010000"
            "00000000");
  EXPECT_EQ(WireHex(Sample<vmanager::AssignRequest>()),
            "05000000000000000100000000000000006400000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::AssignResponse>()),
            "0900000000000000800000000000000040000000000000008000000000000000"
            "c000000000000000080000000000000080000000000000000100000000000000"
            "0000000080000000000000000800000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::NotifyRequest>()),
            "05000000000000000900000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::AbortRequest>()),
            "05000000000000000a00000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::AbortResponse>()),
            "0109000000000000008000000000000000400000000000000080000000000000"
            "00c0000000000000000800000000000000800000000000000001000000000000"
            "000000000080000000000000000800000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::GetRecentRequest>()), "0500000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::GetRecentResponse>()),
            "0900000000000000c000000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::GetSizeRequest>()),
            "05000000000000000200000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::GetSizeResponse>()), "4000000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::AwaitRequest>()),
            "05000000000000000b0000000000000090d0030000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::AwaitResponse>()), "01");
  EXPECT_EQ(WireHex(Sample<vmanager::BranchRequest>()),
            "05000000000000000400000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::BranchResponse>()),
            "0500000000000000001000000000000002000000030000000000000011000000"
            "000000000500000000000000ffffffffffffffff");
  EXPECT_EQ(WireHex(Sample<vmanager::SetRetentionRequest>()),
            "0500000000000000040000000087930300000000");
  EXPECT_EQ(WireHex(Sample<vmanager::GetRetentionRequest>()),
            "0500000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::GetRetentionResponse>()),
            "040000000087930300000000");
  EXPECT_EQ(WireHex(Sample<vmanager::ListVersionsRequest>()),
            "0500000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::ListVersionsResponse>()),
            "0200000006000000000000000002000000000000e80300000000000001000107"
            "000000000000008002000000000000d007000000000000000100");
  EXPECT_EQ(WireHex(Sample<vmanager::DiscardVersionRequest>()),
            "05000000000000000600000000000000");
  EXPECT_EQ(WireHex(Sample<vmanager::ListBlobsResponse>()),
            "03000000010000000000000005000000000000000900000000000000");
  EXPECT_EQ(WireHex(Sample<meta::PageFragment>()),
            "01000000000000000200000000000000040000000500000006000000");
  EXPECT_EQ(WireHex(Sample<locator::LocationEntry>()),
            "070000000000000003000000030000000100000004000000020000000b000000"
            "000000000c00000000000000");
  EXPECT_EQ(WireHex(Sample<baseline::PageRef>()),
            "0100000000000000020000000000000003000000");
  EXPECT_EQ(WireHex(Sample<baseline::CreateRequest>()), "4000000000000000");
  EXPECT_EQ(WireHex(Sample<baseline::CreateResponse>()), "0500000000000000");
  EXPECT_EQ(WireHex(Sample<baseline::UpdateRequest>()),
            "0500000000000000020000000000000000010000000000000200000001000000"
            "0000000002000000000000000300000004000000000000000500000000000000"
            "06000000");
  EXPECT_EQ(WireHex(Sample<baseline::UpdateResponse>()),
            "03000000000000000001000000000000");
  EXPECT_EQ(WireHex(Sample<baseline::LayoutRequest>()),
            "0500000000000000030000000000000001000000000000000200000000000000");
  EXPECT_EQ(WireHex(Sample<baseline::LayoutResponse>()),
            "010000000100000000000000020000000000000003000000");
  EXPECT_EQ(WireHex(Sample<baseline::RecentRequest>()), "0500000000000000");
  EXPECT_EQ(WireHex(Sample<baseline::RecentResponse>()),
            "03000000000000000001000000000000");
  EXPECT_EQ(WireHex(Sample<client::ClientStats>()),
            "0100000000000000020000000000000003000000000000000400000000000000"
            "0500000000000000060000000000000007000000000000000800000000000000"
            "09000000000000000a000000000000000b000000000000000c00000000000000"
            "0d000000000000000e000000000000000f00000000000000");
}

// --- Decoder fuzzing and round trips ----------------------------------------

template <>
meta::MetaNode Sample() {
  return meta::MetaNode::Leaf({Sample<meta::PageFragment>(),
                               meta::PageFragment{PageId{7, 8}, 10, 11, 12}},
                              42, 3);
}

template <typename Msg>
class WireCodecTest : public ::testing::Test {};

// Every wire record and stats payload, plus the hand-coded metadata node.
using WireTypes = ::testing::Types<
    dht::PutRequest,
    dht::GetRequest,
    dht::GetResponse,
    dht::DeleteRequest,
    dht::CasRequest,
    dht::CasResponse,
    dht::MultiGetRequest,
    dht::MultiGetResponse,
    dht::MultiPutRequest,
    dht::StoreStats,
    provider::WriteRequest,
    provider::ReadRequest,
    provider::ReadResponse,
    provider::DeleteRequest,
    provider::PageStoreStats,
    pmanager::RegisterRequest,
    pmanager::RegisterResponse,
    pmanager::HeartbeatRequest,
    pmanager::AllocateRequest,
    pmanager::AllocateResponse,
    pmanager::DirectoryEntry,
    pmanager::DirectoryResponse,
    pmanager::PageLocationInfo,
    pmanager::ReportLocationsRequest,
    pmanager::DecommissionRequest,
    pmanager::DecommissionResponse,
    pmanager::PmStats,
    AncestrySegment,
    BlobDescriptor,
    lifecycle::RetentionPolicy,
    vmanager::BorderEntry,
    vmanager::AssignTicket,
    vmanager::AbortOutcome,
    vmanager::VersionInfo,
    vmanager::VmStats,
    vmanager::CreateBlobRequest,
    vmanager::CreateBlobResponse,
    vmanager::OpenBlobRequest,
    vmanager::OpenBlobResponse,
    vmanager::AssignRequest,
    vmanager::AssignResponse,
    vmanager::NotifyRequest,
    vmanager::AbortRequest,
    vmanager::AbortResponse,
    vmanager::GetRecentRequest,
    vmanager::GetRecentResponse,
    vmanager::GetSizeRequest,
    vmanager::GetSizeResponse,
    vmanager::AwaitRequest,
    vmanager::AwaitResponse,
    vmanager::BranchRequest,
    vmanager::BranchResponse,
    vmanager::SetRetentionRequest,
    vmanager::GetRetentionRequest,
    vmanager::GetRetentionResponse,
    vmanager::ListVersionsRequest,
    vmanager::ListVersionsResponse,
    vmanager::DiscardVersionRequest,
    vmanager::ListBlobsResponse,
    meta::PageFragment,
    locator::LocationEntry,
    baseline::PageRef,
    baseline::CreateRequest,
    baseline::CreateResponse,
    baseline::UpdateRequest,
    baseline::UpdateResponse,
    baseline::LayoutRequest,
    baseline::LayoutResponse,
    baseline::RecentRequest,
    baseline::RecentResponse,
    client::ClientStats,
    meta::MetaNode>;
TYPED_TEST_SUITE(WireCodecTest, WireTypes);

// Junk must decode to some status: never crash, hang or over-allocate.
TYPED_TEST(WireCodecTest, SurvivesGarbage) {
  Rng rng(typeid(TypeParam).hash_code());
  for (int i = 0; i < 3000; i++) {
    std::string junk(rng.Uniform(200), '\0');
    for (auto& c : junk) c = static_cast<char>(rng.Next());
    TypeParam msg;
    (void)DecodePayload(Slice(junk), &msg);
  }
}

// A populated instance round-trips exactly; every strict prefix, and any
// trailing byte, is Corruption.
TYPED_TEST(WireCodecTest, DecodesExactly) {
  const std::string bytes = EncodePayload(Sample<TypeParam>());
  TypeParam got;
  ASSERT_TRUE(DecodePayload(Slice(bytes), &got).ok());
  EXPECT_EQ(EncodePayload(got), bytes);
  for (size_t cut = 0; cut < bytes.size(); cut++) {
    TypeParam partial;
    EXPECT_TRUE(DecodePayload(Slice(bytes.data(), cut), &partial)
                    .IsCorruption())
        << "decoded from truncated prefix " << cut;
  }
  EXPECT_TRUE(DecodePayload(Slice(bytes + '\0'), &got).IsCorruption());
}

// --- Service-level misuse ----------------------------------------------------

TEST(MisuseTest, ServicesRejectGarbagePayloads) {
  core::ClusterOptions opts;
  opts.num_providers = 1;
  opts.num_meta = 1;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  Rng rng(17);
  std::vector<rpc::Method> methods = {
      rpc::Method::kDhtPut,          rpc::Method::kDhtGet,
      rpc::Method::kProviderWrite,   rpc::Method::kProviderRead,
      rpc::Method::kPmRegister,      rpc::Method::kPmAllocate,
      rpc::Method::kVmCreateBlob,    rpc::Method::kVmAssignVersion,
      rpc::Method::kVmBranch,        rpc::Method::kVmGetSize,
  };
  std::vector<std::string> addrs = {
      (*cluster)->dht_addresses()[0], (*cluster)->dht_addresses()[0],
      (*cluster)->provider_addresses()[0], (*cluster)->provider_addresses()[0],
      (*cluster)->pmanager_address(), (*cluster)->pmanager_address(),
      (*cluster)->vmanager_address(), (*cluster)->vmanager_address(),
      (*cluster)->vmanager_address(), (*cluster)->vmanager_address(),
  };
  for (size_t m = 0; m < methods.size(); m++) {
    auto ch = (*cluster)->transport()->Connect(addrs[m]);
    ASSERT_TRUE(ch.ok());
    for (int i = 0; i < 50; i++) {
      std::string junk(rng.Uniform(64), '\0');
      for (auto& c : junk) c = static_cast<char>(rng.Next());
      std::string out;
      // Any status is fine; the service must stay alive.
      (void)(*ch)->Call(methods[m], Slice(junk), &out);
    }
  }
  // Cluster still functional after the abuse.
  auto client = (*cluster)->NewClient();
  ASSERT_TRUE(client.ok());
  auto id = (*client)->Create(64);
  ASSERT_TRUE(id.ok());
  client::Blob blob(client->get(), *id);
  auto v = blob.AppendSync(TestPayload(1, 100));
  ASSERT_TRUE(v.ok());
  std::string outb;
  ASSERT_TRUE(blob.Read(*v, 0, 100, &outb).ok());
  EXPECT_EQ(outb, TestPayload(1, 100));
}

TEST(MisuseTest, WrongMethodBlockForService) {
  core::ClusterOptions opts;
  opts.num_providers = 1;
  opts.num_meta = 1;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  auto ch = (*cluster)->transport()->Connect((*cluster)->vmanager_address());
  ASSERT_TRUE(ch.ok());
  std::string out;
  Status s = (*ch)->Call(rpc::Method::kDhtPut, Slice(""), &out);
  EXPECT_TRUE(s.IsNotSupported());
}

// --- Mixed stress with reference checking ------------------------------------

TEST(StressTest, MixedWorkloadKeepsEverySnapshotConsistent) {
  core::ClusterOptions opts;
  opts.num_providers = 5;
  opts.num_meta = 5;
  auto cluster = core::EmbeddedCluster::Start(opts);
  ASSERT_TRUE(cluster.ok());
  auto owner = (*cluster)->NewClient();
  ASSERT_TRUE(owner.ok());
  auto id = (*owner)->Create(128);
  ASSERT_TRUE(id.ok());
  client::Blob blob(owner->get(), *id);
  ASSERT_TRUE(blob.AppendSync(TestPayload(0, 2000)).ok());

  constexpr int kThreads = 6;
  constexpr int kOpsEach = 15;
  std::mutex mu;
  // version -> (is_append, offset, data); appends record offset at publish.
  std::map<Version, std::tuple<bool, uint64_t, std::string>> ops;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      auto client = (*cluster)->NewClient();
      ASSERT_TRUE(client.ok());
      Rng rng(t * 31 + 7);
      for (int i = 0; i < kOpsEach; i++) {
        std::string data = TestPayload(t * 1000 + i, 1 + rng.Uniform(700));
        if (rng.OneIn(2)) {
          auto v = (*client)->Append(*id, Slice(data));
          ASSERT_TRUE(v.ok()) << v.status().ToString();
          std::lock_guard<std::mutex> lock(mu);
          ops[*v] = {true, 0, data};
        } else {
          uint64_t off = rng.Uniform(1500);
          auto v = (*client)->Write(*id, Slice(data), off);
          ASSERT_TRUE(v.ok()) << v.status().ToString();
          std::lock_guard<std::mutex> lock(mu);
          ops[*v] = {false, off, data};
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  ASSERT_EQ(ops.size(), size_t{kThreads * kOpsEach});
  ASSERT_TRUE((*owner)->Sync(*id, ops.rbegin()->first).ok());

  ReferenceBlob ref;
  ref.ApplyAppend(TestPayload(0, 2000));
  for (auto& [v, op] : ops) {
    auto& [is_append, off, data] = op;
    Version got = is_append ? ref.ApplyAppend(data) : ref.ApplyWrite(data, off);
    ASSERT_EQ(got, v);
  }
  for (Version v = 1; v <= ref.latest(); v += 3) {
    std::string out;
    ASSERT_TRUE((*owner)->Read(*id, v, 0, ref.Size(v), &out).ok()) << v;
    ASSERT_EQ(out, ref.Contents(v)) << "snapshot " << v;
  }
  std::string out;
  Version last = ref.latest();
  ASSERT_TRUE((*owner)->Read(*id, last, 0, ref.Size(last), &out).ok());
  ASSERT_EQ(out, ref.Contents(last));
}

}  // namespace
}  // namespace blobseer
