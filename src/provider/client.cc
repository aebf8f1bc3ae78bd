#include "provider/client.h"

#include "provider/messages.h"

namespace blobseer::provider {

ProviderClient::ProviderClient(rpc::Transport* transport,
                               size_t channels_per_endpoint)
    : pool_(transport, channels_per_endpoint) {}

Future<PageStoreStats> ProviderClient::FetchStatsAsync(
    const std::string& address) {
  return pool_
      .CallWithReconnect<StatsRequest, StatsResponse>(
          address, rpc::Method::kProviderStats, StatsRequest{})
      .Then([](Result<StatsResponse> rsp) -> Result<PageStoreStats> {
        if (!rsp.ok()) return rsp.status();
        PageStoreStats st;
        st.pages = rsp->pages;
        st.bytes = rsp->bytes;
        st.writes = rsp->writes;
        st.reads = rsp->reads;
        st.deletes = rsp->deletes;
        st.segments = rsp->segments;
        st.dead_bytes = rsp->dead_bytes;
        st.syncs = rsp->syncs;
        st.compactions = rsp->compactions;
        st.io_submissions = rsp->io_submissions;
        st.io_sqes = rsp->io_sqes;
        st.bytes_written = rsp->bytes_written;
        st.read_syscalls = rsp->read_syscalls;
        st.recovery_us = rsp->recovery_us;
        return st;
      });
}

Future<Unit> ProviderClient::WritePageAsync(const std::string& address,
                                            const PageId& pid, Slice data) {
  WriteRequest req;
  req.pid = pid;
  req.data = data.ToString();
  return pool_
      .CallWithReconnect<WriteRequest, WriteResponse>(
          address, rpc::Method::kProviderWrite, std::move(req))
      .Then([](Result<WriteResponse> rsp) { return rsp.status(); });
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
      .CallWithReconnect<DeleteRequest, DeleteResponse>(
          address, rpc::Method::kProviderDelete, DeleteRequest{pid})
      .Then([](Result<DeleteResponse> rsp) { return rsp.status(); });
}

}  // namespace blobseer::provider
