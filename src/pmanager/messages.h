// Wire messages for the provider manager service.
#ifndef BLOBSEER_PMANAGER_MESSAGES_H_
#define BLOBSEER_PMANAGER_MESSAGES_H_

#include <string>
#include <vector>

#include "common/serde.h"

namespace blobseer::pmanager {

struct RegisterRequest {
  std::string address;
  uint64_t capacity_pages = 0;
  BS_FIELDS(RegisterRequest, address, capacity_pages)
};

struct RegisterResponse {
  ProviderId id = kInvalidProvider;
  BS_FIELDS(RegisterResponse, id)
};

struct HeartbeatRequest {
  ProviderId id = kInvalidProvider;
  uint64_t stored_pages = 0;
  uint64_t stored_bytes = 0;
  BS_FIELDS(HeartbeatRequest, id, stored_pages, stored_bytes)
};

struct AllocateRequest {
  uint32_t num_pages = 0;
  /// Distinct providers requested per page (the page's replica set).
  uint32_t replication = 1;
  BS_FIELDS(AllocateRequest, num_pages, replication)
};

struct AllocateResponse {
  /// One replica set per requested page; each set lists `replication`
  /// distinct providers, primary first.
  std::vector<std::vector<ProviderId>> replicas;
  BS_FIELDS(AllocateResponse, replicas)
};

struct DirectoryEntry {
  ProviderId id = kInvalidProvider;
  std::string address;
  BS_FIELDS(DirectoryEntry, id, address)
};

struct DirectoryResponse {
  std::vector<DirectoryEntry> entries;
  BS_FIELDS(DirectoryResponse, entries)
};

/// One page's location as known to the reporter (a client that just stored
/// it).
struct PageLocationInfo {
  PageId pid;
  uint64_t epoch = 0;
  std::vector<ProviderId> providers;
  BS_FIELDS(PageLocationInfo, pid, epoch, providers)
};

/// Feeds the provider manager's location table: `added` after storing or
/// seeding pages, `removed` after deleting them. Best-effort from clients —
/// the DHT entries stay authoritative; this view only drives rebuilds.
struct ReportLocationsRequest {
  std::vector<PageLocationInfo> added;
  std::vector<PageId> removed;
  BS_FIELDS(ReportLocationsRequest, added, removed)
};

/// Marks a provider draining and reports drain progress. Idempotent: poll
/// until `drained`, then the process can be retired safely.
struct DecommissionRequest {
  ProviderId id = kInvalidProvider;
  BS_FIELDS(DecommissionRequest, id)
};

struct DecommissionResponse {
  /// Pages whose replica set still includes the draining provider.
  uint64_t remaining_pages = 0;
  bool drained = false;
  BS_FIELDS(DecommissionResponse, remaining_pages, drained)
};

/// Registry and location-table statistics (ProviderManagerService::
/// GetStats, the kPmStats payload).
struct PmStats {
  uint64_t providers = 0;
  uint64_t allocations = 0;
  uint64_t min_allocated = 0;
  uint64_t max_allocated = 0;
  /// Failure-detector verdicts at the time of the call (alive + suspect +
  /// dead == providers). With the detector disabled everyone is alive.
  uint64_t alive = 0;
  uint64_t suspect = 0;
  uint64_t dead = 0;
  /// Location-table view: providers being drained, pages with a known
  /// location, pages whose replica set includes a dead / draining /
  /// unknown provider (the rebuilder's backlog), and pages the rebuilder
  /// has moved so far. `under_replicated == 0` means replication is fully
  /// healed — churn harnesses poll exactly that.
  uint64_t draining = 0;
  uint64_t located_pages = 0;
  uint64_t under_replicated = 0;
  uint64_t rebuilt_pages = 0;
  /// GC sweeper counters (zero when no sweeper is hosted).
  uint64_t gc_passes = 0;
  uint64_t gc_versions_discarded = 0;
  uint64_t gc_versions_retired = 0;
  uint64_t gc_pages_swept = 0;

  BS_FIELDS(PmStats, providers, allocations, min_allocated, max_allocated,
            alive, suspect, dead, draining, located_pages, under_replicated,
            rebuilt_pages, gc_passes, gc_versions_discarded,
            gc_versions_retired, gc_pages_swept)
};

}  // namespace blobseer::pmanager

#endif  // BLOBSEER_PMANAGER_MESSAGES_H_
