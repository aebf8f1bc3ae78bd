#include "pmanager/client.h"

namespace blobseer::pmanager {

ProviderManagerClient::ProviderManagerClient(rpc::Transport* transport,
                                             std::string address,
                                             size_t channels)
    : address_(std::move(address)), pool_(transport, channels) {}

Future<ProviderId> ProviderManagerClient::RegisterAsync(
    const std::string& provider_address, uint64_t capacity_pages) {
  return Call<RegisterRequest, RegisterResponse>(
             rpc::Method::kPmRegister,
             RegisterRequest{provider_address, capacity_pages})
      .Then([](Result<RegisterResponse> rsp) -> Result<ProviderId> {
        if (!rsp.ok()) return rsp.status();
        return rsp->id;
      });
}

Future<Unit> ProviderManagerClient::HeartbeatAsync(ProviderId id,
                                                   uint64_t pages,
                                                   uint64_t bytes) {
  return Call<HeartbeatRequest, rpc::Empty>(
             rpc::Method::kPmHeartbeat, HeartbeatRequest{id, pages, bytes})
      .Then([](Result<rpc::Empty> rsp) { return rsp.status(); });
}

Future<std::vector<std::vector<ProviderId>>>
ProviderManagerClient::AllocateReplicatedAsync(uint32_t num_pages,
                                               uint32_t replication) {
  return Call<AllocateRequest, AllocateResponse>(
             rpc::Method::kPmAllocate, AllocateRequest{num_pages, replication})
      .Then([](Result<AllocateResponse> rsp)
                -> Result<std::vector<std::vector<ProviderId>>> {
        if (!rsp.ok()) return rsp.status();
        return std::move(rsp->replicas);
      });
}

Future<Unit> ProviderManagerClient::ReportLocationsAsync(
    ReportLocationsRequest req) {
  return Call<ReportLocationsRequest, rpc::Empty>(
             rpc::Method::kPmReportLocations, std::move(req))
      .Then([](Result<rpc::Empty> r) { return r.status(); });
}

Future<DecommissionResponse> ProviderManagerClient::DecommissionAsync(
    ProviderId id) {
  return Call<DecommissionRequest, DecommissionResponse>(
      rpc::Method::kPmDecommission, DecommissionRequest{id});
}

Result<std::string> ProviderManagerClient::CachedAddress(ProviderId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = directory_.find(id);
  if (it == directory_.end())
    return Status::NotFound("provider id " + std::to_string(id));
  return it->second;
}

Future<std::string> ProviderManagerClient::ResolveAddressAsync(ProviderId id) {
  auto cached = CachedAddress(id);
  if (cached.ok()) return MakeReadyFuture<std::string>(std::move(cached));
  return FetchDirectoryAsync().Then(
      [this, id](Result<std::vector<DirectoryEntry>> dir)
          -> Result<std::string> {
        if (!dir.ok()) return dir.status();
        return CachedAddress(id);
      });
}

Future<std::vector<DirectoryEntry>>
ProviderManagerClient::FetchDirectoryAsync() {
  return Call<rpc::Empty, DirectoryResponse>(rpc::Method::kPmDirectory,
                                             rpc::Empty{})
      .Then([this](Result<DirectoryResponse> rsp)
                -> Result<std::vector<DirectoryEntry>> {
        if (!rsp.ok()) return rsp.status();
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto& e : rsp->entries) directory_[e.id] = e.address;
        return std::move(rsp->entries);
      });
}

Future<PmStats> ProviderManagerClient::FetchStatsAsync() {
  return Call<rpc::Empty, PmStats>(rpc::Method::kPmStats, rpc::Empty{});
}

}  // namespace blobseer::pmanager
