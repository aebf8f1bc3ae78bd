// Typed client for the version manager. Every operation is asynchronous;
// a caller that needs the result now waits with Future::Wait(executor).
#ifndef BLOBSEER_VMANAGER_CLIENT_H_
#define BLOBSEER_VMANAGER_CLIENT_H_

#include <string>

#include "common/blob_descriptor.h"
#include "common/future.h"
#include "common/result.h"
#include "rpc/channel_pool.h"
#include "vmanager/core.h"

namespace blobseer::vmanager {

/// OpenBlob outcome: descriptor plus the published frontier at open time.
struct OpenInfo {
  BlobDescriptor descriptor;
  Version published = 0;
  uint64_t published_size = 0;
};

class VersionManagerClient {
 public:
  VersionManagerClient(rpc::Transport* transport, std::string address,
                       size_t channels = 2);

  Future<BlobDescriptor> CreateBlobAsync(uint64_t psize);
  Future<OpenInfo> OpenBlobAsync(BlobId id);
  Future<AssignTicket> AssignVersionAsync(BlobId id, bool is_append,
                                          uint64_t offset, uint64_t size);
  Future<Unit> NotifySuccessAsync(BlobId id, Version version);
  Future<AbortOutcome> AbortUpdateAsync(BlobId id, Version version);
  Future<RecentVersion> GetRecentAsync(BlobId id);
  Future<uint64_t> GetSizeAsync(BlobId id, Version version);
  /// Resolves OK once published, TimedOut after `timeout_us` (server-push:
  /// the server parks a subscription and answers from the publisher, so no
  /// thread is held on either side and the shared channel pool stays usable
  /// — responses are matched by correlation id, not arrival order).
  Future<Unit> AwaitPublishedAsync(BlobId id, Version version,
                                   uint64_t timeout_us);
  Future<BlobDescriptor> BranchAsync(BlobId id, Version version);
  Future<VmStats> GetStatsAsync();

  /// Version lifecycle (docs/lifecycle.md), driven by the GC sweeper.
  Future<Unit> SetRetentionAsync(BlobId id,
                                 const lifecycle::RetentionPolicy& policy);
  Future<lifecycle::RetentionPolicy> GetRetentionAsync(BlobId id);
  Future<std::vector<VersionInfo>> ListVersionsAsync(BlobId id);
  Future<Unit> DiscardVersionAsync(BlobId id, Version version);
  Future<std::vector<BlobId>> ListBlobsAsync();

  const std::string& address() const { return address_; }

 private:
  /// Typed call on a pooled channel, without the reconnect-once retry the
  /// other clients use: AssignVersion is not idempotent. The second form
  /// resolves to one field of the response, the third to its status.
  template <typename Rsp, typename Req>
  Future<Rsp> Call(rpc::Method method, const Req& req);
  template <typename Rsp, typename Req, typename T>
  Future<T> Call(rpc::Method method, const Req& req, T Rsp::*field);
  template <typename Rsp, typename Req>
  Future<Unit> CallStatus(rpc::Method method, const Req& req);

  std::string address_;
  rpc::ChannelPool pool_;
};

}  // namespace blobseer::vmanager

#endif  // BLOBSEER_VMANAGER_CLIENT_H_
