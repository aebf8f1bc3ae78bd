// Ablation baseline: centralized metadata management, as in the systems the
// paper contrasts itself with (Lustre/PVFS/GFS-style single metadata
// server; paper section 1 "in all these systems the metadata management is
// centralized"). One server owns the complete page map of every version;
// each update copies the previous version's page table under a global lock.
#ifndef BLOBSEER_BASELINE_CENTRAL_META_H_
#define BLOBSEER_BASELINE_CENTRAL_META_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/future.h"
#include "common/serde.h"
#include "common/types.h"
#include "rpc/channel_pool.h"
#include "rpc/transport.h"

namespace blobseer::baseline {

/// One page slot of a version's page table.
struct PageRef {
  PageId pid;
  ProviderId provider = kInvalidProvider;
  BS_FIELDS(PageRef, pid, provider)
};

// Wire messages of the four kCentral* methods.

struct CreateRequest {
  uint64_t psize = 0;
  BS_FIELDS(CreateRequest, psize)
};
struct CreateResponse {
  BlobId id = kInvalidBlobId;
  BS_FIELDS(CreateResponse, id)
};

struct UpdateRequest {
  BlobId id = kInvalidBlobId;
  uint64_t first_page = 0;
  uint64_t new_size = 0;
  std::vector<PageRef> refs;
  BS_FIELDS(UpdateRequest, id, first_page, new_size, refs)
};
struct UpdateResponse {
  uint64_t version = 0;
  uint64_t new_size = 0;
  BS_FIELDS(UpdateResponse, version, new_size)
};

struct LayoutRequest {
  BlobId id = kInvalidBlobId;
  Version version = 0;
  uint64_t first_page = 0;
  uint64_t num_pages = 0;
  BS_FIELDS(LayoutRequest, id, version, first_page, num_pages)
};
struct LayoutResponse {
  std::vector<PageRef> refs;
  BS_FIELDS(LayoutResponse, refs)
};

struct RecentRequest {
  BlobId id = kInvalidBlobId;
  BS_FIELDS(RecentRequest, id)
};
struct RecentResponse {
  uint64_t version = 0;
  uint64_t size = 0;
  BS_FIELDS(RecentResponse, version, size)
};

struct CentralMetaStats {
  uint64_t blobs = 0;
  uint64_t versions = 0;
  uint64_t page_refs = 0;  ///< total page-table entries held (space metric)
};

/// The centralized metadata server. Aligned updates only (page-granular):
/// the comparison targets metadata scalability, not unaligned handling.
class CentralMetaService : public rpc::ServiceHandler {
 public:
  Status Handle(rpc::Method method, Slice payload,
                std::string* response) override;

  CentralMetaStats GetStats() const;

  /// Invoked after every update with the number of page refs the version
  /// copy touched, outside the internal lock. Benchmarks on the simulated
  /// transport use it to charge the copy's CPU cost in virtual time.
  void set_update_cost_hook(std::function<void(uint64_t refs_copied)> hook) {
    cost_hook_ = std::move(hook);
  }

 private:
  std::function<void(uint64_t)> cost_hook_;
  struct BlobState {
    uint64_t psize = 0;
    /// Page table per published version; index = version. Version 0 is the
    /// empty table. Each update deep-copies the predecessor (the classic
    /// snapshot cost the segment tree avoids).
    std::vector<std::shared_ptr<const std::vector<PageRef>>> versions;
    std::vector<uint64_t> sizes;
  };
  mutable std::mutex mu_;  // single global lock: the centralized bottleneck
  std::map<BlobId, BlobState> blobs_;
  BlobId next_id_ = 1;
  uint64_t total_page_refs_ = 0;
  uint64_t total_versions_ = 0;
};

/// Client for the baseline service. Every call is asynchronous.
class CentralMetaClient {
 public:
  CentralMetaClient(rpc::Transport* transport, std::string address,
                    size_t channels = 8);

  Future<BlobId> CreateAsync(uint64_t psize);
  /// Registers an aligned update covering pages [first_page,
  /// first_page+refs.size()): resolves to the new version and blob size.
  Future<UpdateResponse> UpdateAsync(BlobId id, uint64_t first_page,
                                     std::vector<PageRef> refs,
                                     uint64_t new_size);
  /// Page refs covering the aligned range of a version.
  Future<std::vector<PageRef>> GetLayoutAsync(BlobId id, Version version,
                                              uint64_t first_page,
                                              uint64_t num_pages);
  Future<RecentResponse> GetRecentAsync(BlobId id);

 private:
  template <typename Rsp, typename Req>
  Future<Rsp> Call(rpc::Method method, const Req& req);

  std::string address_;
  rpc::ChannelPool pool_;
};

}  // namespace blobseer::baseline

#endif  // BLOBSEER_BASELINE_CENTRAL_META_H_
