// Log-structured durable page store: append-only segment files, an
// in-memory PageId index rebuilt by scanning on open, batched group-commit
// fdatasync, and segment compaction driven by version-GC deletes.
//
// Compared to a one-file-per-page layout this amortizes the
// per-page inode + metadata flush into sequential appends with one
// fdatasync per flush window shared by all concurrent writers — the
// layout ForkBase-style chunk stores use, and the remedy Sears & van Ingen
// prescribe for file-per-object fragmentation at scale.
#ifndef BLOBSEER_PAGELOG_LOG_PAGE_STORE_H_
#define BLOBSEER_PAGELOG_LOG_PAGE_STORE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "provider/page_store.h"

namespace blobseer::pagelog {

struct LogPageStoreOptions {
  /// A segment is sealed and a new one opened once appending the next record
  /// would push it past this size (a single oversized record still fits).
  uint64_t segment_target_bytes = 64ull << 20;

  /// When true (the default) every Put/Delete is durable before it returns:
  /// writers entering during an in-flight fdatasync coalesce into the next
  /// one (leader-based group commit). When false the store only syncs on
  /// segment seal and compaction — the paper's RAM-provider throughput mode
  /// with a durability window.
  bool sync = true;

  /// Compact() rewrites sealed segments whose dead-payload ratio (deleted or
  /// superseded duplicate records) is at least this threshold.
  double compact_min_dead_ratio = 0.5;

  /// When > 0, a Delete that leaves any sealed segment at or above this
  /// dead-payload ratio triggers an inline Compact() — how the GC
  /// sweeper's tombstone storms reclaim disk without an external
  /// compaction driver. This knob decides *when* compaction runs;
  /// compact_min_dead_ratio still decides *which* segments it rewrites.
  /// 0 (the default) keeps compaction manual.
  double compact_dead_ratio = 0;
};

/// Opens (creating or recovering) a log-structured store rooted at `dir`.
/// Recovery scans every segment, truncates a torn tail record (short or
/// CRC-mismatched) and rebuilds the index; an unrecoverable I/O error is
/// deferred and reported by every subsequent operation.
std::unique_ptr<provider::PageStore> MakeLogPageStore(
    const std::string& dir, LogPageStoreOptions opts = {});

}  // namespace blobseer::pagelog

#endif  // BLOBSEER_PAGELOG_LOG_PAGE_STORE_H_
