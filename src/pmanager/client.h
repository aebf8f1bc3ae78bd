// Typed client for the provider manager. Every operation is asynchronous;
// a caller that needs the result now waits with Future::Wait(executor).
#ifndef BLOBSEER_PMANAGER_CLIENT_H_
#define BLOBSEER_PMANAGER_CLIENT_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/future.h"
#include "common/result.h"
#include "pmanager/messages.h"
#include "rpc/channel_pool.h"

namespace blobseer::pmanager {

class ProviderManagerClient {
 public:
  ProviderManagerClient(rpc::Transport* transport, std::string address,
                        size_t channels = 2);

  Future<ProviderId> RegisterAsync(const std::string& provider_address,
                                   uint64_t capacity_pages);
  Future<Unit> HeartbeatAsync(ProviderId id, uint64_t pages, uint64_t bytes);

  /// Asks for a replica set of `replication` distinct providers per page
  /// (primary first). Fails with Unavailable when fewer live providers than
  /// `replication` are registered. This is the only allocation surface —
  /// unreplicated callers pass replication = 1.
  Future<std::vector<std::vector<ProviderId>>> AllocateReplicatedAsync(
      uint32_t num_pages, uint32_t replication);

  /// Feeds the provider manager's location table (best-effort: the DHT
  /// entries remain authoritative, this view only drives rebuilds).
  Future<Unit> ReportLocationsAsync(ReportLocationsRequest req);

  /// Marks a provider draining and reports how many pages still reference
  /// it. Poll until `drained` before retiring the process.
  Future<DecommissionResponse> DecommissionAsync(ProviderId id);

  /// Resolves a provider id to its endpoint address; a directory cache hit
  /// resolves immediately, a miss refreshes the directory.
  Future<std::string> ResolveAddressAsync(ProviderId id);

  /// Forces a directory refresh and returns it.
  Future<std::vector<DirectoryEntry>> FetchDirectoryAsync();

  /// Registry statistics, including the failure detector's current
  /// alive/suspect/dead counts and the location-table health counters
  /// (tools, tests and churn harnesses).
  Future<PmStats> FetchStatsAsync();

 private:
  /// Pooled call with reconnect-once. Register and Heartbeat are
  /// idempotent; a duplicated Allocate can over-charge allocated_pages
  /// transiently, which the next heartbeat's stored-page count corrects.
  template <typename Req, typename Rsp>
  Future<Rsp> Call(rpc::Method method, Req req) {
    return pool_.CallWithReconnect<Req, Rsp>(address_, method, std::move(req));
  }

  Result<std::string> CachedAddress(ProviderId id);
  std::string address_;
  rpc::ChannelPool pool_;
  std::mutex mu_;
  std::map<ProviderId, std::string> directory_;
};

}  // namespace blobseer::pmanager

#endif  // BLOBSEER_PMANAGER_CLIENT_H_
