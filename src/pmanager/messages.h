// Wire messages for the provider manager service.
#ifndef BLOBSEER_PMANAGER_MESSAGES_H_
#define BLOBSEER_PMANAGER_MESSAGES_H_

#include <string>
#include <vector>

#include "common/serde.h"
#include "common/stats.h"

namespace blobseer::pmanager {

struct RegisterRequest {
  std::string address;
  uint64_t capacity_pages = 0;
  void EncodeTo(BinaryWriter* w) const {
    w->PutString(address);
    w->PutU64(capacity_pages);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetString(&address));
    return r->GetU64(&capacity_pages);
  }
};

struct RegisterResponse {
  ProviderId id = kInvalidProvider;
  void EncodeTo(BinaryWriter* w) const { w->PutU32(id); }
  Status DecodeFrom(BinaryReader* r) { return r->GetU32(&id); }
};

struct HeartbeatRequest {
  ProviderId id = kInvalidProvider;
  uint64_t stored_pages = 0;
  uint64_t stored_bytes = 0;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU32(id);
    w->PutU64(stored_pages);
    w->PutU64(stored_bytes);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetU32(&id));
    BS_RETURN_NOT_OK(r->GetU64(&stored_pages));
    return r->GetU64(&stored_bytes);
  }
};

struct AllocateRequest {
  uint32_t num_pages = 0;
  /// Distinct providers requested per page (the page's replica set).
  uint32_t replication = 1;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU32(num_pages);
    w->PutU32(replication);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetU32(&num_pages));
    return r->GetU32(&replication);
  }
};

struct AllocateResponse {
  /// One replica set per requested page; each set lists `replication`
  /// distinct providers, primary first.
  std::vector<std::vector<ProviderId>> replicas;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU32(static_cast<uint32_t>(replicas.size()));
    for (const auto& set : replicas) {
      w->PutU32(static_cast<uint32_t>(set.size()));
      for (ProviderId p : set) w->PutU32(p);
    }
  }
  Status DecodeFrom(BinaryReader* r) {
    uint32_t n;
    BS_RETURN_NOT_OK(r->GetU32(&n));
    if (static_cast<uint64_t>(n) * 4 > r->remaining())
      return Status::Corruption("page count exceeds payload");
    replicas.resize(n);
    for (auto& set : replicas) {
      uint32_t cnt;
      BS_RETURN_NOT_OK(r->GetU32(&cnt));
      if (static_cast<uint64_t>(cnt) * 4 > r->remaining())
        return Status::Corruption("replica count exceeds payload");
      set.resize(cnt);
      for (auto& p : set) BS_RETURN_NOT_OK(r->GetU32(&p));
    }
    return Status::OK();
  }
};

struct DirectoryEntry {
  ProviderId id = kInvalidProvider;
  std::string address;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU32(id);
    w->PutString(address);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetU32(&id));
    return r->GetString(&address);
  }
};

struct DirectoryResponse {
  std::vector<DirectoryEntry> entries;
  void EncodeTo(BinaryWriter* w) const { PutVector(w, entries); }
  Status DecodeFrom(BinaryReader* r) { return GetVector(r, &entries); }
};

/// One page's location as known to the reporter (a client that just stored
/// it).
struct PageLocationInfo {
  PageId pid;
  uint64_t epoch = 0;
  std::vector<ProviderId> providers;
  void EncodeTo(BinaryWriter* w) const {
    w->PutPageId(pid);
    w->PutU64(epoch);
    w->PutU32(static_cast<uint32_t>(providers.size()));
    for (ProviderId p : providers) w->PutU32(p);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetPageId(&pid));
    BS_RETURN_NOT_OK(r->GetU64(&epoch));
    uint32_t n;
    BS_RETURN_NOT_OK(r->GetU32(&n));
    if (static_cast<uint64_t>(n) * 4 > r->remaining())
      return Status::Corruption("replica count exceeds payload");
    providers.resize(n);
    for (auto& p : providers) BS_RETURN_NOT_OK(r->GetU32(&p));
    return Status::OK();
  }
};

/// Feeds the provider manager's location table: `added` after storing or
/// seeding pages, `removed` after deleting them. Best-effort from clients —
/// the DHT entries stay authoritative; this view only drives rebuilds.
struct ReportLocationsRequest {
  std::vector<PageLocationInfo> added;
  std::vector<PageId> removed;
  void EncodeTo(BinaryWriter* w) const {
    PutVector(w, added);
    w->PutU32(static_cast<uint32_t>(removed.size()));
    for (const PageId& pid : removed) w->PutPageId(pid);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(GetVector(r, &added));
    uint32_t n;
    BS_RETURN_NOT_OK(r->GetU32(&n));
    if (static_cast<uint64_t>(n) * 16 > r->remaining())
      return Status::Corruption("removed count exceeds payload");
    removed.resize(n);
    for (auto& pid : removed) BS_RETURN_NOT_OK(r->GetPageId(&pid));
    return Status::OK();
  }
};

/// Marks a provider draining and reports drain progress. Idempotent: poll
/// until `drained`, then the process can be retired safely.
struct DecommissionRequest {
  ProviderId id = kInvalidProvider;
  void EncodeTo(BinaryWriter* w) const { w->PutU32(id); }
  Status DecodeFrom(BinaryReader* r) { return r->GetU32(&id); }
};

struct DecommissionResponse {
  /// Pages whose replica set still includes the draining provider.
  uint64_t remaining_pages = 0;
  bool drained = false;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU64(remaining_pages);
    w->PutBool(drained);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetU64(&remaining_pages));
    return r->GetBool(&drained);
  }
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

  static constexpr auto Fields() {
    using S = PmStats;
    return std::to_array<stats::Field<S>>(
        {{"providers", &S::providers},
         {"allocations", &S::allocations},
         {"min_allocated", &S::min_allocated},
         {"max_allocated", &S::max_allocated},
         {"alive", &S::alive},
         {"suspect", &S::suspect},
         {"dead", &S::dead},
         {"draining", &S::draining},
         {"located_pages", &S::located_pages},
         {"under_replicated", &S::under_replicated},
         {"rebuilt_pages", &S::rebuilt_pages},
         {"gc_passes", &S::gc_passes},
         {"gc_versions_discarded", &S::gc_versions_discarded},
         {"gc_versions_retired", &S::gc_versions_retired},
         {"gc_pages_swept", &S::gc_pages_swept}});
  }
};

}  // namespace blobseer::pmanager

#endif  // BLOBSEER_PMANAGER_MESSAGES_H_
