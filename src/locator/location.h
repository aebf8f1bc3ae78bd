// Page-location indirection: maps stable PageIds to the replica set that
// currently holds the page. Metadata leaves (format v3) store only PageIds;
// the location entries live in the DHT under their own key namespace, so
// the failure detector can move replicas without rewriting any metadata
// tree node.
#ifndef BLOBSEER_LOCATOR_LOCATION_H_
#define BLOBSEER_LOCATOR_LOCATION_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/future.h"
#include "common/result.h"
#include "common/serde.h"
#include "common/types.h"
#include "dht/client.h"

namespace blobseer::locator {

/// DHT key for a page's location entry ('L' namespace tag, mirroring the
/// metadata node 'N' namespace).
std::string LocationKey(const PageId& pid);

/// Where a page's replicas currently live. `epoch` increments on every
/// relocation; it is the compare-and-swap token that serializes concurrent
/// rebuilds and lets caches detect staleness.
struct LocationEntry {
  uint64_t epoch = 0;
  std::vector<ProviderId> providers;
  /// Dedup reference count: the number of store events referencing this
  /// page (1 from the original publish, +1 per content-hash adoption).
  /// 0 means the GC sweeper condemned the entry — the page is being
  /// physically deleted and must not be adopted (docs/lifecycle.md).
  uint32_t refs = 1;
  /// Content hash the page was deduplicated under (0/0 = none); lets the
  /// sweeper clean the 'H' namespace mapping when the page dies.
  uint64_t hash_hi = 0;
  uint64_t hash_lo = 0;

  friend bool operator==(const LocationEntry&, const LocationEntry&) = default;

  bool valid() const { return epoch != 0 && !providers.empty(); }
  bool condemned() const { return refs == 0; }

  std::string ToString() const;

  BS_FIELDS(LocationEntry, epoch, providers, refs, hash_hi, hash_lo)
};

struct LocationIndexStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidations = 0;
};

/// Client view of the location index: resolve with a small LRU cache in
/// front of the DHT, publish entries for freshly written pages, and CAS
/// entries when moving replicas. Every operation is asynchronous.
/// Thread-safe.
class LocationIndex {
 public:
  /// `dht` must outlive the index. `cache_capacity` of 0 disables caching.
  LocationIndex(dht::DhtClient* dht, size_t cache_capacity);

  /// Current replica set for `pid`, from cache or the DHT. NotFound when no
  /// entry exists (deleted page).
  Future<LocationEntry> ResolveAsync(const PageId& pid);

  /// The entry of a freshly written page — epoch 1, refs 1 — and the DHT
  /// put that installs it. A plain put: PageIds are minted client-locally
  /// and never reused, so no other writer can race this key. `hash_hi`/
  /// `hash_lo` record the content hash the page is addressed by when dedup
  /// is on (0/0 = none). Writers ship these puts with their tree nodes in
  /// one multi-put wave, then record each entry with NotePublished.
  static LocationEntry FreshEntry(std::vector<ProviderId> providers,
                                  uint64_t hash_hi = 0, uint64_t hash_lo = 0);
  static dht::PutRequest PublishPut(const PageId& pid,
                                    const LocationEntry& entry);
  void NotePublished(const PageId& pid, const LocationEntry& entry);

  /// Full-entry CAS: installs `next` (with epoch forced to
  /// `expected.epoch + 1`) iff the stored bytes still equal `expected`.
  /// Resolves to the installed entry; Aborted when the stored entry no
  /// longer matches (a concurrent relocation or refs change won —
  /// re-resolve and retry); NotFound when the entry was deleted underneath.
  /// Replica moves carry refs and content hash through unchanged; the GC
  /// sweeper condemns entries through this (refs -> 0) so any concurrent
  /// adoption — which must itself CAS a refs bump — fails one side of the
  /// race cleanly.
  Future<LocationEntry> CompareAndSwapEntryAsync(const PageId& pid,
                                                 const LocationEntry& expected,
                                                 LocationEntry next);

  /// Atomically adds `delta` to the entry's dedup refcount (fresh DHT read,
  /// never the cache), retrying lost CAS races up to `max_retries` times.
  /// Resolves to the installed entry. FailedPrecondition when the entry is
  /// condemned (refs == 0): the caller must not adopt this page.
  Future<LocationEntry> AdjustRefsAsync(const PageId& pid, int32_t delta,
                                        int max_retries = 4);

  /// Deletes the entry outright (physical cleanup after a condemn; also the
  /// failed-write cleanup path). Plain delete, caller serializes.
  Future<Unit> DeleteEntryAsync(const PageId& pid);

  /// Drops one / every cached entry. Readers invalidate a page on replica
  /// failover so the next resolve re-fetches the (possibly moved) entry.
  void Invalidate(const PageId& pid);
  void InvalidateAll();

  LocationIndexStats GetStats() const;
  dht::DhtClient* dht() { return dht_; }

 private:
  bool CacheLookup(const PageId& pid, LocationEntry* entry);
  void CacheInsert(const PageId& pid, const LocationEntry& entry);

  dht::DhtClient* dht_;
  size_t capacity_;

  mutable std::mutex mu_;
  // LRU: most-recent at front.
  std::list<std::pair<PageId, LocationEntry>> lru_;
  std::unordered_map<PageId,
                     std::list<std::pair<PageId, LocationEntry>>::iterator>
      cache_;
  LocationIndexStats stats_;
};

}  // namespace blobseer::locator

#endif  // BLOBSEER_LOCATOR_LOCATION_H_
