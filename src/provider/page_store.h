// Storage engines for page objects held by a data provider.
#ifndef BLOBSEER_PROVIDER_PAGE_STORE_H_
#define BLOBSEER_PROVIDER_PAGE_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/serde.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace blobseer::provider {

struct PageStoreStats {
  uint64_t pages = 0;
  uint64_t bytes = 0;
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t deletes = 0;
  // Log-structured backend extension (zero for the other engines).
  uint64_t segments = 0;       ///< on-disk segment files currently open
  uint64_t dead_bytes = 0;     ///< payload bytes of deleted/duplicate records
  uint64_t syncs = 0;          ///< fdatasync/fsync calls issued (group commit)
  uint64_t compactions = 0;    ///< segments reclaimed by Compact()
  uint64_t bytes_written = 0;  ///< file bytes written via the append path
  uint64_t read_syscalls = 0;  ///< pread calls issued by the read path
  uint64_t recovery_us = 0;    ///< open-time segment scan/replay micros

  friend bool operator==(const PageStoreStats&,
                         const PageStoreStats&) = default;

  BS_FIELDS(PageStoreStats, pages, bytes, writes, reads, deletes, segments,
            dead_bytes, syncs, compactions, bytes_written, read_syscalls,
            recovery_us)
};

/// Abstract page object store. Page objects are immutable once written
/// (BlobSeer updates always mint new page ids), so implementations never
/// need update-in-place.
class PageStore {
 public:
  virtual ~PageStore() = default;

  /// Stores a page object. Overwriting an existing id with identical length
  /// is idempotent; differing content is a protocol violation reported as
  /// AlreadyExists.
  virtual Status Put(const PageId& id, Slice data) = 0;

  /// Reads `len` bytes starting at `offset` within the object; `len == 0`
  /// means "through the end". Fails with OutOfRange if the object is
  /// shorter than requested.
  virtual Status Read(const PageId& id, uint64_t offset, uint64_t len,
                      std::string* out) = 0;

  virtual Status Delete(const PageId& id) = 0;

  /// Reclaims space held by deleted pages. No-op for engines that free space
  /// eagerly; the log-structured backend rewrites segments whose dead ratio
  /// exceeds its configured threshold. Safe to call concurrently with reads
  /// and writes.
  virtual Status Compact() { return Status::OK(); }

  virtual PageStoreStats GetStats() const = 0;
};

/// Validates a read of [offset, offset+len) against an object of
/// `object_size` bytes; `len == 0` means "through the end" and is rewritten
/// to the remaining byte count. Shared by every PageStore engine.
inline Status CheckReadRange(uint64_t object_size, uint64_t offset,
                             uint64_t* len) {
  if (offset > object_size) return Status::OutOfRange("page read offset");
  uint64_t avail = object_size - offset;
  if (*len == 0) {
    *len = avail;
    return Status::OK();
  }
  if (*len > avail)
    return Status::OutOfRange("page read [" + std::to_string(offset) + ",+" +
                              std::to_string(*len) + ") beyond object of " +
                              std::to_string(object_size) + " bytes");
  return Status::OK();
}

/// Heap-backed store (the configuration used for all paper experiments —
/// Grid'5000 providers served pages from RAM).
std::unique_ptr<PageStore> MakeMemoryPageStore();

/// Size-only store for the network simulator: remembers object lengths and
/// serves zero bytes. Keeps 175-node / multi-GiB simulations in memory.
std::unique_ptr<PageStore> MakeNullPageStore();

}  // namespace blobseer::provider

#endif  // BLOBSEER_PROVIDER_PAGE_STORE_H_
