// Typed client for data provider endpoints.
#ifndef BLOBSEER_PROVIDER_CLIENT_H_
#define BLOBSEER_PROVIDER_CLIENT_H_

#include <string>

#include "common/future.h"
#include "common/result.h"
#include "common/types.h"
#include "provider/page_store.h"
#include "rpc/channel_pool.h"
#include "rpc/transport.h"

namespace blobseer::provider {

/// Stateless helper issuing page operations against arbitrary provider
/// addresses through a shared channel pool (thread-safe). Page operations
/// are idempotent (pages are immutable and deletes tolerate repeats), so
/// every call reconnects once on a stale pooled channel.
class ProviderClient {
 public:
  ProviderClient(rpc::Transport* transport, size_t channels_per_endpoint = 4);

  Future<Unit> WritePageAsync(const std::string& address, const PageId& pid,
                              Slice data);
  /// `len == 0` reads through the end of the stored object.
  Future<std::string> ReadPageAsync(const std::string& address,
                                    const PageId& pid, uint64_t offset,
                                    uint64_t len);
  Future<Unit> DeletePageAsync(const std::string& address, const PageId& pid);
  /// Full store statistics, including the log-backend extension fields.
  Future<PageStoreStats> FetchStatsAsync(const std::string& address);

 private:
  rpc::ChannelPool pool_;
};

}  // namespace blobseer::provider

#endif  // BLOBSEER_PROVIDER_CLIENT_H_
