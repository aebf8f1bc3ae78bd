// Version manager core logic, transport-free (paper sections 3.1, 4.2).
//
// The version manager is the system's only serialization point. It assigns
// totally-ordered snapshot versions to updates, tracks in-flight updates so
// it can hand writers the *partial border sets* that let concurrent
// WRITE/APPEND metadata writes proceed without waiting for each other, and
// publishes versions in order once their metadata is written — which is
// what makes every primitive atomic in the sense of [Guerraoui et al.].
#ifndef BLOBSEER_VMANAGER_CORE_H_
#define BLOBSEER_VMANAGER_CORE_H_

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/blob_descriptor.h"
#include "common/clock.h"
#include "common/result.h"
#include "common/serde.h"
#include "common/types.h"
#include "lifecycle/retention.h"

namespace blobseer::vmanager {

/// Resolution of one border (or edge-page) block against the in-flight
/// updates the version manager knows about.
struct BorderEntry {
  Extent block;
  Version version = kNoVersion;

  friend bool operator==(const BorderEntry&, const BorderEntry&) = default;

  BS_FIELDS(BorderEntry, block, version)
};

/// Everything a writer needs to build the metadata of its new snapshot:
/// its assigned version, the resolved range, and border help (paper 4.2:
/// "the version manager will supply the problematic tree nodes ... directly
/// to the writer at the moment it is assigned a new snapshot version").
struct AssignTicket {
  Version version = kNoVersion;
  uint64_t offset = 0;    ///< resolved byte offset (== request for WRITE)
  uint64_t size = 0;      ///< update length in bytes
  uint64_t old_size = 0;  ///< blob size of snapshot version-1
  uint64_t new_size = 0;  ///< blob size after this update
  Version published = 0;  ///< latest published version at assign time
  uint64_t published_size = 0;
  /// Border + edge-page blocks resolvable only through in-flight updates.
  std::vector<BorderEntry> borders;

  Extent range() const { return Extent{offset, size}; }

  BS_FIELDS(AssignTicket, version, offset, size, old_size, new_size, published,
            published_size, borders)
};

/// Result of AbortUpdate: either the version was retracted outright (it was
/// the newest assigned, nobody could have referenced it), or it must be
/// repaired as a zero-filled update using the returned ticket before it can
/// be published (see DESIGN.md section 3.3).
struct AbortOutcome {
  bool retracted = false;
  AssignTicket repair;
  BS_FIELDS(AbortOutcome, retracted, repair)
};

struct VmStats {
  uint64_t blobs = 0;
  uint64_t assigned = 0;
  uint64_t published = 0;
  uint64_t aborted = 0;
  uint64_t discarded = 0;
  uint64_t sync_waiters = 0;  ///< parked publication subscriptions

  BS_FIELDS(VmStats, blobs, assigned, published, aborted, discarded,
            sync_waiters)
};

/// One version's lifecycle facts, as reported by ListVersions (the GC
/// sweeper feeds these to lifecycle::ExpiredVersions and walks the
/// segment trees of the survivors).
struct VersionInfo {
  Version version = kNoVersion;
  uint64_t size = 0;  ///< blob size of this snapshot
  uint64_t assigned_at_us = 0;
  bool published = false;
  bool discarded = false;
  /// Latest published, a child's branch point, or an in-flight update's
  /// published frontier — DiscardVersion refuses these.
  bool pinned = false;

  friend bool operator==(const VersionInfo&, const VersionInfo&) = default;

  BS_FIELDS(VersionInfo, version, size, assigned_at_us, published, discarded,
            pinned)
};

/// Thread-safe version manager state machine.
class VersionManagerCore {
 public:
  /// `clock` stamps assignment times for age-based retention; nullptr means
  /// the real clock. Must outlive the core.
  explicit VersionManagerCore(Clock* clock = nullptr)
      : clock_(clock ? clock : RealClock::Default()) {}

  /// Fails every still-parked publication waiter with Unavailable.
  ~VersionManagerCore();

  /// Creates a blob with the given page size (power of two) and an empty,
  /// already-published snapshot 0.
  Result<BlobDescriptor> CreateBlob(uint64_t psize);

  /// Returns the descriptor plus current published version and size.
  Result<BlobDescriptor> OpenBlob(BlobId id, Version* published,
                                  uint64_t* published_size);

  /// Registers an update and assigns it the next version (paper WRITE step
  /// 10 / APPEND). For appends the offset is chosen by the manager: the
  /// size of snapshot version-1. Fails with OutOfRange if a WRITE offset
  /// lies beyond that size.
  Result<AssignTicket> AssignVersion(BlobId id, bool is_append,
                                     uint64_t offset, uint64_t size);

  /// Marks an update's metadata as durably written; publishes it (and any
  /// successors unblocked by it) in version order.
  Status NotifySuccess(BlobId id, Version version);

  /// Abandons an assigned, unpublished update (writer crash/failure path).
  Result<AbortOutcome> AbortUpdate(BlobId id, Version version);

  /// GET_RECENT: latest published version; guarantees v >= any version
  /// published before this call.
  Status GetRecent(BlobId id, Version* version, uint64_t* size);

  /// GET_SIZE of a *published* snapshot; NotFound if unpublished.
  Result<uint64_t> GetSize(BlobId id, Version version);

  /// Blocks up to timeout_us until `version` is published (0 = non-blocking
  /// probe, UINT64_MAX = forever). OK when published, TimedOut otherwise.
  Status AwaitPublished(BlobId id, Version version, uint64_t timeout_us);

  /// Non-blocking publication subscription (the server-push path behind
  /// AwaitPublished RPCs). If the outcome is already decided — version
  /// published (OK) or blob missing (NotFound) — `done` is invoked inline
  /// and 0 is returned. Otherwise the waiter parks in the registry and a
  /// non-zero token is returned; `done` fires exactly once, with OK when
  /// publication reaches `version`, or with the status a later CancelWaiter
  /// supplies (timeout watchdog, shutdown). A version retracted by
  /// AbortUpdate keeps its waiters parked: the version number is reassigned
  /// to the next update, and the waiter resolves when that one publishes.
  /// `done` runs under no core lock but may run on the publisher's thread —
  /// keep it cheap.
  uint64_t SubscribePublished(BlobId id, Version version,
                              std::function<void(Status)> done);

  /// Completes a parked waiter with `outcome`; returns false when the token
  /// is unknown (already fired). Safe to race with publication.
  bool CancelWaiter(uint64_t token, const Status& outcome);

  /// True while the token's waiter is still parked.
  bool HasWaiter(uint64_t token) const;

  /// Parked publication waiters (exposed as VmStats.sync_waiters).
  size_t waiter_count() const;

  /// BRANCH: new blob identical to `id` up to and including published
  /// version `version` (paper section 2.1).
  Result<BlobDescriptor> Branch(BlobId id, Version version);

  /// Stores the blob's retention policy (replacing any previous one). The
  /// policy is advisory state: the GC sweeper reads it back and turns it
  /// into DiscardVersion calls, so policy and manual deletion share a path.
  Status SetRetention(BlobId id, const lifecycle::RetentionPolicy& policy);
  Result<lifecycle::RetentionPolicy> GetRetention(BlobId id);

  /// Lifecycle facts for every version this blob owns (versions above its
  /// branch point), ascending. Version 0 (the empty snapshot) has no record
  /// and is never listed — it owns no pages or tree nodes.
  Result<std::vector<VersionInfo>> ListVersions(BlobId id);

  /// Every live blob id, ascending (the GC sweeper's enumeration).
  Result<std::vector<BlobId>> ListBlobs();

  /// Marks a published snapshot discarded: reads of it fail NotFound and
  /// the GC sweeper may reclaim its unshared pages and tree nodes. Refuses
  /// (FailedPrecondition) versions this blob does not own, unpublished
  /// versions, and pinned ones (latest published, child branch points,
  /// in-flight published frontiers). Idempotent on re-discard.
  Status DiscardVersion(BlobId id, Version version);

  VmStats GetStats() const;

 private:
  struct UpdateRecord {
    Extent range;
    uint64_t size_after = 0;
    bool completed = false;
    bool aborted = false;
    bool discarded = false;
    uint64_t assigned_at_us = 0;
    /// blob->published at assign time: the snapshot whose tree this update
    /// border-links against. Pinned until this update publishes or aborts.
    Version ref_floor = 0;
  };

  struct BlobMeta {
    BlobId id = kInvalidBlobId;
    uint64_t psize = 0;
    BlobId parent = kInvalidBlobId;
    Version branch_version = 0;  ///< versions <= this belong to ancestors
    Version published = 0;
    uint64_t published_size = 0;
    Version last_assigned = 0;
    uint64_t last_assigned_size = 0;
    std::map<Version, UpdateRecord> updates;  ///< versions > branch_version
    std::vector<AncestrySegment> ancestry;
    lifecycle::RetentionPolicy retention;
    /// Parked subscription tokens keyed by the version they wait for;
    /// drained (lowest first) as `published` advances past each key.
    std::multimap<Version, uint64_t> waiter_index;
  };

  /// One parked AwaitPublished subscription.
  struct PublishWaiter {
    BlobId id = kInvalidBlobId;
    Version version = kNoVersion;
    std::function<void(Status)> done;
  };

  BlobMeta* FindLocked(BlobId id);
  /// True when `version` must never be discarded from `blob`: the latest
  /// published snapshot, a child blob's branch point, or the published
  /// frontier an in-flight (unpublished) update border-links against.
  bool PinnedLocked(const BlobMeta* blob, Version version) const;
  /// True when the (possibly ancestor-owned) version has been discarded.
  bool DiscardedLocked(BlobMeta* blob, Version version);
  /// Size of (possibly ancestor-owned) version v; requires v assigned.
  Result<uint64_t> SizeOfVersionLocked(BlobMeta* blob, Version v);
  /// Builds the partial border set for an update (range, new_size) at
  /// assign time, scanning in-flight updates newest-first.
  std::vector<BorderEntry> ComputeBordersLocked(BlobMeta* blob, Version vw,
                                                const Extent& range,
                                                uint64_t old_size,
                                                uint64_t new_size);
  /// Advances `published` over completed successors; collects the `done`
  /// callbacks of waiters this satisfies into `*fired` (never invoked under
  /// mu_ — the caller runs them after unlocking, since an inline-transport
  /// callback may re-enter the core).
  void AdvancePublishedLocked(BlobMeta* blob,
                              std::vector<std::function<void(Status)>>* fired);

  Clock* clock_;
  mutable std::mutex mu_;
  std::condition_variable publish_cv_;
  std::map<BlobId, std::unique_ptr<BlobMeta>> blobs_;
  std::map<uint64_t, PublishWaiter> waiters_;  ///< token -> subscription
  uint64_t next_waiter_token_ = 1;
  BlobId next_blob_id_ = 1;
  uint64_t total_assigned_ = 0;
  uint64_t total_published_ = 0;
  uint64_t total_aborted_ = 0;
  uint64_t total_discarded_ = 0;
};

}  // namespace blobseer::vmanager

#endif  // BLOBSEER_VMANAGER_CORE_H_
