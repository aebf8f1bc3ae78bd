// Version lifecycle: retention-driven garbage collection (docs/lifecycle.md).
//
// The sweeper is hosted by the provider manager next to the rebuilder and
// runs mark-and-sweep passes over the whole store:
//
//   1. retention  — evaluate each blob's RetentionPolicy against its version
//                   history and DiscardVersion() the expired ones (the same
//                   vmanager path manual deletion uses);
//   2. candidates — walk the segment-tree roots of discarded versions
//                   (NotFound-tolerant: earlier passes already deleted some
//                   of this metadata) collecting node keys and PageIds;
//   3. mark       — walk every published, non-discarded version of every
//                   blob, strictly (any failure aborts the pass: sweeping
//                   with an incomplete live set would delete live data);
//   4. sweep      — for each candidate page not in the live set, condemn its
//                   location entry (full-entry CAS to refs = 0, so a racing
//                   dedup adoption — which must CAS a refs bump — loses on
//                   exactly one side), physically delete the replicas
//                   (pagelog tombstones that feed compaction), drop the 'H'
//                   hash mapping if it still points at the page, and delete
//                   the entry; then retire the candidate tree nodes.
//
// Nodes are swept only when the page sweep completed within budget:
// deleting a version's root first would orphan pages the next pass could no
// longer enumerate. A crash between the two phases leaks only bounded
// metadata (re-walked and retired by the next pass).
#ifndef BLOBSEER_LIFECYCLE_GC_SWEEPER_H_
#define BLOBSEER_LIFECYCLE_GC_SWEEPER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/blob_descriptor.h"
#include "common/clock.h"
#include "common/executor.h"
#include "common/result.h"
#include "common/types.h"
#include "dht/client.h"
#include "locator/location.h"
#include "locator/rebuilder.h"
#include "locator/table.h"
#include "meta/meta_client.h"
#include "provider/client.h"
#include "vmanager/client.h"

namespace blobseer::lifecycle {

struct GcOptions {
  /// Loop pacing; 0 disables the background loop (RunOnePass still works).
  uint64_t interval_us = 0;
  /// Per-pass page budget: bounds the burst of delete traffic one pass may
  /// create. A truncated pass keeps the version roots so the remainder is
  /// re-enumerated next pass.
  size_t max_sweep_per_pass = 256;
  /// Evaluate retention policies into DiscardVersion calls. Off, the
  /// sweeper only collects versions discarded explicitly.
  bool apply_retention = true;
};

struct GcStats {
  uint64_t passes = 0;
  uint64_t versions_discarded = 0;  // expired by policy, this sweeper
  uint64_t versions_retired = 0;    // metadata fully swept
  uint64_t pages_swept = 0;         // condemned + physically deleted
  uint64_t pages_deferred = 0;      // condemn CAS lost (adoption raced)
  uint64_t nodes_retired = 0;       // tree nodes deleted from the DHT
  uint64_t hash_links_removed = 0;  // 'H' mappings cleaned
  uint64_t errors = 0;
};

class GcSweeper {
 public:
  using ProvidersFn = locator::Rebuilder::ProvidersFn;

  /// `table` must outlive the sweeper; `providers` is polled per pass. The
  /// sweeper runs its own DHT client — `dht_options` must match what
  /// clients use, for identical key placement.
  GcSweeper(locator::PageLocationTable* table, ProvidersFn providers,
            rpc::Transport* transport, std::string vm_address,
            std::vector<std::string> dht_nodes,
            dht::DhtClientOptions dht_options, GcOptions options);
  ~GcSweeper();

  /// One mark-and-sweep pass at time `now_us` (retention ages are measured
  /// against it). Safe to call directly from tests and benches (no loop
  /// required). Returns the first hard error, or OK — per-page failures are
  /// counted in stats and retried next pass, they do not fail the pass.
  /// The pass waits on its RPCs through `executor`, the executor the caller
  /// runs on (nullptr on a plain OS thread).
  Status RunOnePass(uint64_t now_us, Executor* executor = nullptr);

  /// Starts / stops the periodic pass loop on `executor`, paced by `clock`
  /// (real or simulated). No-op when options.interval_us is 0. Stop joins
  /// the loop, so after it returns no pass (and none of its delete RPCs)
  /// is still in flight — harness teardown asserts Drained().
  void Start(Executor* executor, Clock* clock);
  void Stop();

  /// True when no pass is executing. Guaranteed after Stop(); harnesses
  /// check it before tearing down the transport under the sweeper.
  bool Drained() const { return !pass_active_.load(std::memory_order_acquire); }

  GcStats GetStats() const;

 private:
  struct Loop;

  /// Collects the node keys and page ids reachable from (blob, version).
  /// Tolerant walks skip NotFound nodes (already-swept metadata); strict
  /// walks fail on any error. Nodes already in `nodes` are not re-walked.
  Status WalkVersion(const BranchAncestry& ancestry, Version version,
                     uint64_t size, uint64_t psize, bool tolerant,
                     std::set<std::string>* nodes,
                     std::unordered_set<PageId>* pids, Executor* executor);

  /// Condemns and physically deletes one page. OK = swept; Aborted = a
  /// concurrent refs CAS won (deferred to next pass); NotFound = already
  /// gone.
  Status SweepPage(
      const PageId& pid,
      const std::unordered_map<ProviderId, locator::ProviderView>& views,
      Executor* executor);

  locator::PageLocationTable* table_;
  ProvidersFn providers_;
  GcOptions options_;
  vmanager::VersionManagerClient vm_;
  dht::DhtClient dht_;
  // No location cache: condemn CAS must start from the authoritative entry.
  locator::LocationIndex index_;
  // Cache off: cached nodes of retired versions would be garbage.
  meta::MetaClient meta_;
  provider::ProviderClient providers_client_;

  std::atomic<bool> pass_active_{false};

  mutable std::mutex mu_;
  GcStats stats_;
  // Versions whose metadata this sweeper already retired — skipped when
  // re-listed (the vmanager keeps discarded records forever for ancestry
  // math). Purely an optimization: re-walking them is harmless.
  std::set<std::pair<BlobId, Version>> retired_;

  std::shared_ptr<Loop> loop_;
};

}  // namespace blobseer::lifecycle

#endif  // BLOBSEER_LIFECYCLE_GC_SWEEPER_H_
