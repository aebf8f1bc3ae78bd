#include "provider/client.h"

#include "provider/messages.h"

namespace blobseer::provider {

ProviderClient::ProviderClient(rpc::Transport* transport,
                               size_t channels_per_endpoint)
    : pool_(transport, channels_per_endpoint) {}

Future<PageStoreStats> ProviderClient::FetchStatsAsync(
    const std::string& address) {
  return pool_.CallWithReconnect<rpc::Empty, PageStoreStats>(
      address, rpc::Method::kProviderStats, rpc::Empty{});
}

Future<Unit> ProviderClient::WritePageAsync(const std::string& address,
                                            const PageId& pid, Slice data) {
  WriteRequest req;
  req.pid = pid;
  req.data = data.ToString();
  return pool_
      .CallWithReconnect<WriteRequest, rpc::Empty>(
          address, rpc::Method::kProviderWrite, std::move(req))
      .Then([](Result<rpc::Empty> rsp) { return rsp.status(); });
}

Future<std::string> ProviderClient::ReadPageAsync(const std::string& address,
                                                  const PageId& pid,
                                                  uint64_t offset,
                                                  uint64_t len) {
  return pool_
      .CallWithReconnect<ReadRequest, ReadResponse>(
          address, rpc::Method::kProviderRead, ReadRequest{pid, offset, len})
      .Then([](Result<ReadResponse> rsp) -> Result<std::string> {
        if (!rsp.ok()) return rsp.status();
        return std::move(rsp->data);
      });
}

Future<Unit> ProviderClient::DeletePageAsync(const std::string& address,
                                             const PageId& pid) {
  return pool_
      .CallWithReconnect<DeleteRequest, rpc::Empty>(
          address, rpc::Method::kProviderDelete, DeleteRequest{pid})
      .Then([](Result<rpc::Empty> rsp) { return rsp.status(); });
}

}  // namespace blobseer::provider
