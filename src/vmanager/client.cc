#include "vmanager/client.h"

#include "rpc/call.h"
#include "vmanager/messages.h"

namespace blobseer::vmanager {

VersionManagerClient::VersionManagerClient(rpc::Transport* transport,
                                           std::string address,
                                           size_t channels)
    : address_(std::move(address)), pool_(transport, channels) {}

template <typename Rsp, typename Req>
Future<Rsp> VersionManagerClient::Call(rpc::Method method, const Req& req) {
  auto ch = pool_.Get(address_);
  if (!ch.ok()) return MakeReadyFuture<Rsp>(ch.status());
  return rpc::CallMethodAsync<Req, Rsp>(ch->get(), method, req);
}

template <typename Rsp, typename Req, typename T>
Future<T> VersionManagerClient::Call(rpc::Method method, const Req& req,
                                     T Rsp::*field) {
  return Call<Rsp>(method, req).Then([field](Result<Rsp> rsp) -> Result<T> {
    if (!rsp.ok()) return rsp.status();
    return std::move((*rsp).*field);
  });
}

template <typename Rsp, typename Req>
Future<Unit> VersionManagerClient::CallStatus(rpc::Method method,
                                              const Req& req) {
  return Call<Rsp>(method, req).Then(
      [](Result<Rsp> rsp) { return rsp.status(); });
}

Future<BlobDescriptor> VersionManagerClient::CreateBlobAsync(uint64_t psize) {
  return Call(rpc::Method::kVmCreateBlob, CreateBlobRequest{psize},
              &CreateBlobResponse::descriptor);
}

Future<OpenInfo> VersionManagerClient::OpenBlobAsync(BlobId id) {
  return Call<OpenBlobResponse>(rpc::Method::kVmOpenBlob, OpenBlobRequest{id})
      .Then([](Result<OpenBlobResponse> rsp) -> Result<OpenInfo> {
        if (!rsp.ok()) return rsp.status();
        return OpenInfo{std::move(rsp->descriptor), rsp->published,
                        rsp->published_size};
      });
}

Future<AssignTicket> VersionManagerClient::AssignVersionAsync(BlobId id,
                                                              bool is_append,
                                                              uint64_t offset,
                                                              uint64_t size) {
  return Call(rpc::Method::kVmAssignVersion,
              AssignRequest{id, is_append, offset, size},
              &AssignResponse::ticket);
}

Future<Unit> VersionManagerClient::NotifySuccessAsync(BlobId id,
                                                      Version version) {
  return CallStatus<rpc::Empty>(rpc::Method::kVmNotifySuccess,
                                NotifyRequest{id, version});
}

Future<AbortOutcome> VersionManagerClient::AbortUpdateAsync(BlobId id,
                                                            Version version) {
  return Call(rpc::Method::kVmAbortUpdate, AbortRequest{id, version},
              &AbortResponse::outcome);
}

Future<RecentVersion> VersionManagerClient::GetRecentAsync(BlobId id) {
  return Call<GetRecentResponse>(rpc::Method::kVmGetRecent,
                                 GetRecentRequest{id})
      .Then([](Result<GetRecentResponse> rsp) -> Result<RecentVersion> {
        if (!rsp.ok()) return rsp.status();
        return RecentVersion{rsp->version, rsp->size};
      });
}

Future<uint64_t> VersionManagerClient::GetSizeAsync(BlobId id,
                                                    Version version) {
  return Call(rpc::Method::kVmGetSize, GetSizeRequest{id, version},
              &GetSizeResponse::size);
}

Future<Unit> VersionManagerClient::AwaitPublishedAsync(BlobId id,
                                                       Version version,
                                                       uint64_t timeout_us) {
  return Call<AwaitResponse>(rpc::Method::kVmAwaitPublished,
                             AwaitRequest{id, version, timeout_us})
      .Then([](Result<AwaitResponse> rsp) -> Status {
        if (!rsp.ok()) return rsp.status();
        return rsp->published ? Status::OK()
                              : Status::TimedOut("not published");
      });
}

Future<BlobDescriptor> VersionManagerClient::BranchAsync(BlobId id,
                                                         Version version) {
  return Call(rpc::Method::kVmBranch, BranchRequest{id, version},
              &BranchResponse::descriptor);
}

Future<VmStats> VersionManagerClient::GetStatsAsync() {
  return Call<VmStats>(rpc::Method::kVmStats, rpc::Empty{});
}

Future<Unit> VersionManagerClient::SetRetentionAsync(
    BlobId id, const lifecycle::RetentionPolicy& policy) {
  return CallStatus<rpc::Empty>(rpc::Method::kVmSetRetention,
                                SetRetentionRequest{id, policy});
}

Future<lifecycle::RetentionPolicy> VersionManagerClient::GetRetentionAsync(
    BlobId id) {
  return Call(rpc::Method::kVmGetRetention, GetRetentionRequest{id},
              &GetRetentionResponse::policy);
}

Future<std::vector<VersionInfo>> VersionManagerClient::ListVersionsAsync(
    BlobId id) {
  return Call(rpc::Method::kVmListVersions, ListVersionsRequest{id},
              &ListVersionsResponse::versions);
}

Future<Unit> VersionManagerClient::DiscardVersionAsync(BlobId id,
                                                       Version version) {
  return CallStatus<rpc::Empty>(rpc::Method::kVmDiscardVersion,
                                DiscardVersionRequest{id, version});
}

Future<std::vector<BlobId>> VersionManagerClient::ListBlobsAsync() {
  return Call(rpc::Method::kVmListBlobs, rpc::Empty{},
              &ListBlobsResponse::blobs);
}

}  // namespace blobseer::vmanager
