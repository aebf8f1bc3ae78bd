// BlobSeer client library: implements the paper's access primitives
// (section 2.1) — CREATE, READ, WRITE, APPEND, GET_RECENT, GET_SIZE, SYNC,
// BRANCH — over the version manager, provider manager, data providers and
// the DHT-backed metadata store.
//
// The async API (*Async methods returning Future<T>) is the real
// implementation: every operation is a continuation chain whose RPC
// fan-outs (page stores, metadata node writes, page fetches) pipeline over
// the transport without parking a client thread per operation, so a single
// client can keep dozens of updates in flight. The synchronous methods are
// thin waits over the same chains. See docs/client_api.md for the
// threading model and argument-lifetime rules.
#ifndef BLOBSEER_CLIENT_BLOB_CLIENT_H_
#define BLOBSEER_CLIENT_BLOB_CLIENT_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/blob_descriptor.h"
#include "common/clock.h"
#include "common/executor.h"
#include "common/future.h"
#include "common/result.h"
#include "dht/client.h"
#include "lifecycle/dedup.h"
#include "locator/location.h"
#include "meta/meta_client.h"
#include "pmanager/client.h"
#include "provider/client.h"
#include "vmanager/client.h"

namespace blobseer::client {

struct ClientOptions {
  /// Distinct providers storing each page (1 = no replication). WRITE fans
  /// every page out to all replicas; READ tries replicas in order with
  /// failover and best-effort read repair.
  uint32_t replication = 1;
  /// Replica acks required before a page store (and hence the update)
  /// proceeds: `w` of `r`. 0 (the default) or any value >= replication
  /// means all replicas. With w < r a page write survives up to r - w
  /// failed replicas; the straggler puts complete detached (mirroring the
  /// capped read-repair pattern) and a replica that missed its put is
  /// healed by failover + read repair on the first degraded read. The
  /// store fails — after every replica settled, so failure cleanup never
  /// races an in-flight put — only when fewer than w replicas accepted.
  uint32_t write_quorum = 0;
  /// Bounds the pages a single operation keeps in flight (and hence the
  /// page buffers a replicated write materializes at once); 0 = unlimited,
  /// i.e. the transport's channel pipelining is the only bound.
  size_t max_inflight_pages = 0;
  /// Leaf fragment-chain length that triggers page compaction on the next
  /// write to the page (unaligned-write bookkeeping; DESIGN.md 3.2).
  uint32_t max_chain = 16;
  /// Metadata node cache (immutable nodes; safe to cache).
  bool cache_metadata = true;
  size_t cache_capacity = 1 << 16;
  /// Channels per endpoint for parallel RPCs.
  size_t channels_per_endpoint = 8;
  /// Content-hash page dedup (docs/lifecycle.md): pages are addressed by a
  /// 128-bit content hash in the DHT's 'H' namespace, and a write whose
  /// page body already exists adopts the stored page (bumping its location
  /// entry's refcount) instead of storing a duplicate. The hash is fast,
  /// not cryptographic, so this is opt-in for trusted workloads.
  bool dedup = false;
  dht::DhtClientOptions dht;
};

struct ClientStats {
  uint64_t writes = 0;
  uint64_t appends = 0;
  uint64_t reads = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  uint64_t pages_stored = 0;
  uint64_t meta_nodes_written = 0;
  uint64_t compactions = 0;
  uint64_t repairs = 0;
  /// Reads served by a non-primary replica after a failed attempt.
  uint64_t failover_reads = 0;
  /// Page objects re-stored on a replica that failed a read (read repair).
  uint64_t read_repairs = 0;
  /// Pages acked at the write quorum although at least one replica put
  /// failed (w < r absorbed a replica failure).
  uint64_t degraded_writes = 0;
  /// Location entries installed for freshly written pages.
  uint64_t locations_published = 0;
  /// Reads that re-resolved a page's location after exhausting the cached
  /// replica set (the page had been moved by the rebuilder).
  uint64_t location_refreshes = 0;
  /// Pages adopted through the content-hash index instead of stored.
  uint64_t dedup_hits = 0;

  BS_FIELDS(ClientStats, writes, appends, reads, bytes_written, bytes_read,
            pages_stored, meta_nodes_written, compactions, repairs,
            failover_reads, read_repairs, degraded_writes, locations_published,
            location_refreshes, dedup_hits)
};

/// One BlobSeer client process. Thread-safe: concurrent operations on the
/// same client are allowed and proceed in parallel; async operations from a
/// single caller thread additionally overlap with each other.
class BlobClient {
 public:
  static constexpr uint64_t kNoTimeout = UINT64_MAX;

  /// `dht_nodes` must list the metadata-provider endpoints in the same
  /// order on every client (placement is positional).
  /// `executor` defaults to an owned thread pool; the simulator injects its
  /// SimExecutor. `clock` is not consulted: SYNC is a server-push
  /// subscription, so the client paces nothing on a clock of its own.
  BlobClient(rpc::Transport* transport, std::string vmanager_address,
             std::string pmanager_address, std::vector<std::string> dht_nodes,
             ClientOptions options = {}, Clock* clock = nullptr,
             Executor* executor = nullptr);
  ~BlobClient();

  BlobClient(const BlobClient&) = delete;
  BlobClient& operator=(const BlobClient&) = delete;

  // --- Asynchronous core. Futures resolve on the transport's completion
  // context (or on the caller when the transport completes inline); Slice
  // arguments are borrowed and must stay alive until the returned future
  // resolves. ---

  /// CREATE: new empty blob with the given page size (power of two).
  Future<BlobId> CreateAsync(uint64_t psize);

  /// Fetches (and caches) a blob's descriptor.
  Future<BlobDescriptor> OpenAsync(BlobId id);

  /// WRITE: replaces `data.size()` bytes at `offset`, producing a new
  /// snapshot. Resolves to the assigned version; the snapshot may not be
  /// published yet (use Sync/SyncAsync for read-your-writes). Fails with
  /// OutOfRange if `offset` exceeds the size of the preceding snapshot.
  Future<Version> WriteAsync(BlobId id, Slice data, uint64_t offset);

  /// APPEND: WRITE at the implicit offset = size of the preceding snapshot.
  Future<Version> AppendAsync(BlobId id, Slice data);

  /// READ from published snapshot `version`; resolves to the bytes read.
  /// Fails if the version is not yet published or the range exceeds the
  /// snapshot size.
  Future<std::string> ReadAsync(BlobId id, Version version, uint64_t offset,
                                uint64_t size);

  /// GET_RECENT: a recently published version (>= anything published
  /// before the call) and its size.
  Future<RecentVersion> GetRecentAsync(BlobId id);

  /// GET_SIZE of a published snapshot.
  Future<uint64_t> GetSizeAsync(BlobId id, Version version);

  /// SYNC: resolves once `version` is published (or TimedOut). The wait is
  /// a server-push subscription: one AwaitPublished RPC carries the full
  /// timeout and the server answers at publish time, so no thread is
  /// parked on either side.
  Future<Unit> SyncAsync(BlobId id, Version version,
                         uint64_t timeout_us = kNoTimeout);

  /// Abandons an assigned-but-unpublished update: retracts it when
  /// possible, otherwise repairs it as a zero-filled update and publishes
  /// it so the version chain keeps advancing (writer-crash recovery).
  Future<Unit> AbortAsync(BlobId id, Version version);

  // --- Synchronous facade: each call waits on the async chain above. ---

  Result<BlobId> Create(uint64_t psize);
  Result<BlobDescriptor> Open(BlobId id);
  Result<Version> Write(BlobId id, Slice data, uint64_t offset);
  Result<Version> Append(BlobId id, Slice data);
  Status Read(BlobId id, Version version, uint64_t offset, uint64_t size,
              std::string* out);
  Result<RecentVersion> GetRecent(BlobId id);
  Result<uint64_t> GetSize(BlobId id, Version version);
  Status Sync(BlobId id, Version version, uint64_t timeout_us = kNoTimeout);
  Status Abort(BlobId id, Version version);

  /// BRANCH: new blob sharing content with `id` up to `version`.
  Result<BlobId> Branch(BlobId id, Version version);

  ClientStats GetStats() const;

  vmanager::VersionManagerClient& vmanager() { return vm_; }
  pmanager::ProviderManagerClient& pmanager() { return pm_; }
  dht::DhtClient& dht() { return dht_; }
  locator::LocationIndex& locator() { return locator_; }
  meta::MetaClient& meta() { return meta_; }
  const ClientOptions& options() const { return options_; }
  Executor* executor() { return executor_; }

 private:
  struct PageWrite {
    uint64_t page_index = 0;
    meta::PageFragment frag;
    Slice bytes;  // fragment payload (borrowed from caller / owned buffer)
    /// Replica set the page was stored on. Lives outside the fragment: v3
    /// metadata persists only the PageId, the location index owns the
    /// PageId -> replica-set mapping.
    std::vector<ProviderId> replicas;
    /// Dedup bookkeeping (hash.valid() iff dedup hashed this page):
    /// `adopted` pages reference an existing page object via a refcount
    /// bump and were never stored; `claimed_h` marks that this op installed
    /// the 'H' mapping (so cleanup retracts it).
    lifecycle::ContentHash hash;
    bool adopted = false;
    bool claimed_h = false;
  };
  /// One update's page split plus the straggler barrier: with a write
  /// quorum below r, a page future can resolve while replica puts are
  /// still in flight. DeletePagesAsync waits for the barrier so a cleanup
  /// delete can never race a late put and resurrect a page object.
  struct PageWriteBatch {
    explicit PageWriteBatch(std::vector<PageWrite> p) : pages(std::move(p)) {}
    explicit PageWriteBatch(size_t n) : pages(n) {}
    std::vector<PageWrite> pages;

    std::mutex mu;
    size_t inflight_puts = 0;  // pages with replica puts not yet settled
    std::vector<Promise<Unit>> idle_waiters;
    void PutsStarted();
    void PutsSettled();
    /// Resolves once no replica put of this batch is in flight.
    Future<Unit> WhenPutsSettled();
  };
  struct FetchPiece {
    PageId pid;
    std::vector<ProviderId> providers;  // replica set, tried in order
    uint64_t src_off = 0;
    uint64_t len = 0;
    uint64_t page_local_off = 0;
  };
  struct Interval {
    uint64_t begin = 0;
    uint64_t end = 0;
  };

  /// Shared state of one WRITE/APPEND (or abort-repair) continuation
  /// chain; lives until its future resolves.
  struct UpdateOp;
  /// Shared state of one READ chain.
  struct ReadOp;

  Future<BlobDescriptor> DescriptorAsync(BlobId id);
  PageId NewPageId();

  /// Splits an update's payload along the page grid.
  std::vector<PageWrite> SplitIntoPages(Slice data, uint64_t offset,
                                        uint64_t psize) const;

  /// Allocates a replica set per page and stores every page object on its
  /// replicas, windowed by max_inflight_pages; each page resolves at the
  /// configured write quorum.
  Future<Unit> StorePagesAsync(std::shared_ptr<PageWriteBatch> batch);
  /// One page's replica fan-out: resolve every replica address, write the
  /// page object to all of them, resolve at `write_quorum` acks (stragglers
  /// complete detached and are drained by the destructor / the batch
  /// barrier).
  Future<Unit> StorePageReplicasAsync(std::shared_ptr<PageWriteBatch> batch,
                                      size_t index);
  /// Dedup pre-stage for one page (ClientOptions::dedup): claim the 'H'
  /// mapping for the fresh PageId with a create-if-absent CAS, or adopt
  /// the existing page by CAS-bumping its location entry's refcount. A
  /// losing adoption (the holder was condemned by GC mid-race) falls back
  /// to a fresh store and best-effort repairs the mapping.
  Future<Unit> StorePageDedupAsync(std::shared_ptr<PageWriteBatch> batch,
                                   size_t index);
  /// Best-effort removal of the 'H' mapping iff it still targets `pid`.
  Future<Unit> UnlinkHashAsync(lifecycle::ContentHash hash, PageId pid);
  /// Best-effort physical deletion of one dead page (location entry plus
  /// every replica copy) once its refcount proved no one references it.
  Future<Unit> PurgePageAsync(PageId pid, std::vector<ProviderId> replicas);
  /// Best-effort deletion of already-stored pages — every replica of every
  /// page plus its location entry (failure cleanup); waits for the batch's
  /// straggler barrier first; always resolves OK.
  Future<Unit> DeletePagesAsync(std::shared_ptr<PageWriteBatch> batch);

  /// Runs `tasks`, keeping at most `window` outstanding (0 = all at once).
  /// A failure stops the windowed refill (already-launched tasks drain
  /// first; the unbounded form launches everything up front); resolves
  /// with the first error.
  Future<Unit> RunWindowed(
      std::vector<std::function<Future<Unit>()>> tasks, size_t window);

  /// Detached best-effort read repair: copies the full page object from
  /// `providers[good]` back onto the replicas that failed the read
  /// (providers[0..good)).
  void RepairReplicasAsync(FetchPiece piece, size_t good);

  /// Detached chains (read repair, straggler replica puts) are not awaited
  /// by any caller; the destructor drains them so they never outlive the
  /// client. The drain parks on an executor-provided event, so it is
  /// sim-safe. At most kMaxDetachedRepairs *repair* chains run at once —
  /// beyond that, repairs are dropped (they re-trigger on the next
  /// degraded read); straggler puts are never dropped (their RPCs are
  /// already in flight) and register unconditionally via BeginDetachedOp.
  static constexpr size_t kMaxDetachedRepairs = 32;
  void BeginDetachedOp();
  void EndDetachedOp();
  void DrainDetachedOps();

  /// Stage 2 of an update: version assigned; `stored` resolves once the
  /// update's page writes are durable (WRITE stores before it is assigned a
  /// version, so its `stored` is ready). Plans the tree while the pages are
  /// in flight, builds the leaves, ships the update's DHT wave, reports the
  /// pages to the provider manager and publishes. A failure deletes the
  /// update's pages and, unless the op is an abort repair, aborts it.
  Future<Version> RunUpdateAsync(std::shared_ptr<UpdateOp> op,
                                 Future<Unit> stored);

  /// Builds the new snapshot's tree (paper Algorithm 4) in three steps.
  /// PlanMetaAsync needs only the ticket: it labels every border block
  /// (the ticket's partial border set, then one walk of the published
  /// tree for the rest) and assembles the new inner nodes.
  /// BuildLeavesAsync needs the stored pages: it builds every leaf in
  /// parallel (chain bookkeeping, compaction), taking an edge page's
  /// previous label from the plan.
  /// ShipUpdateAsync sends all new nodes and the location entries of every
  /// page the update stored as one kDhtMultiPut per DHT node, then reports
  /// the pages to the provider manager's location table.
  Future<Unit> PlanMetaAsync(std::shared_ptr<UpdateOp> op);
  Future<Unit> BuildLeavesAsync(std::shared_ptr<UpdateOp> op);
  Future<Unit> ShipUpdateAsync(std::shared_ptr<UpdateOp> op);
  Future<Unit> BuildLeafAsync(std::shared_ptr<UpdateOp> op, PageWrite* w);

  /// Chain-walk composition: which stored bytes satisfy `needed` (page-
  /// local intervals) for the page `block` whose newest leaf is `leaf`.
  Future<std::vector<FetchPiece>> ResolveLeafPiecesAsync(
      const BranchAncestry& ancestry, const Extent& block,
      const meta::MetaNode& leaf, std::vector<Interval> needed);

  /// Fetches `pieces` into `dst` (piece i lands at
  /// bases[i] + page_local_off - range_offset). `dst` must stay alive until
  /// resolution; callers own it through their op state.
  Future<Unit> FetchPiecesIntoAsync(std::vector<FetchPiece> pieces,
                                    std::vector<uint64_t> bases,
                                    uint64_t range_offset, char* dst);

  rpc::Transport* transport_;
  ClientOptions options_;
  std::unique_ptr<Executor> owned_executor_;
  Executor* executor_;

  vmanager::VersionManagerClient vm_;
  pmanager::ProviderManagerClient pm_;
  dht::DhtClient dht_;
  locator::LocationIndex locator_;
  meta::MetaClient meta_;
  provider::ProviderClient providers_;

  std::mutex mu_;
  std::map<BlobId, BlobDescriptor> descriptors_;

  uint64_t client_id_;
  std::atomic<uint64_t> page_seq_{1};

  mutable std::mutex stats_mu_;
  ClientStats stats_;

  std::mutex detached_mu_;
  size_t detached_ops_ = 0;
  std::shared_ptr<WaitEvent> detached_waiter_;
};

}  // namespace blobseer::client

#endif  // BLOBSEER_CLIENT_BLOB_CLIENT_H_
