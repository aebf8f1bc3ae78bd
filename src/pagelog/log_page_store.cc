#include "pagelog/log_page_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "pagelog/format.h"

namespace blobseer::pagelog {

namespace {

using provider::PageStore;
using provider::PageStoreStats;

/// Upper bound accepted for a record payload during recovery; anything
/// larger is treated as a corrupt length field.
constexpr uint64_t kMaxRecordPayload = 1ull << 30;

/// Chunk size for sequential segment scans (recovery, compaction).
constexpr size_t kScanChunk = 256u << 10;

Status ErrnoError(const std::string& what) {
  return Status::IOError(what + ": " + strerror(errno));
}

Status ErrnoStatus(const char* op, const std::string& path, uint64_t off) {
  int e = errno;
  return Status::IOError(StrFormat("%s %s @%llu: %s", op, path.c_str(),
                                   static_cast<unsigned long long>(off),
                                   std::strerror(e)));
}

/// Loop until the full range is transferred; errors name the path and
/// offset, and a short read reports the missing byte count so torn-tail
/// truncation reports are actionable.
Status PwriteFull(int fd, const char* p, size_t n, uint64_t off,
                  const std::string& path) {
  while (n > 0) {
    ssize_t w = ::pwrite(fd, p, n, static_cast<off_t>(off));
    if (w < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pwrite", path, off);
    }
    p += w;
    n -= static_cast<size_t>(w);
    off += static_cast<uint64_t>(w);
  }
  return Status::OK();
}

Status PreadFull(int fd, char* p, size_t n, uint64_t off,
                 const std::string& path) {
  while (n > 0) {
    ssize_t r = ::pread(fd, p, n, static_cast<off_t>(off));
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread", path, off);
    }
    if (r == 0) {
      return Status::Corruption(
          StrFormat("short read: %s @%llu: %zu bytes past EOF", path.c_str(),
                    static_cast<unsigned long long>(off), n));
    }
    p += r;
    n -= static_cast<size_t>(r);
    off += static_cast<uint64_t>(r);
  }
  return Status::OK();
}

/// PreadFull that bumps the store's read_syscalls counter.
Status CountedPread(std::atomic<uint64_t>* reads, int fd, char* p, size_t n,
                    uint64_t off, const std::string& path) {
  reads->fetch_add(1, std::memory_order_relaxed);
  return PreadFull(fd, p, n, off, path);
}

/// One on-disk segment. The fd stays open for the Segment's lifetime so
/// concurrent readers (and compaction) can keep serving a segment even
/// after its file has been unlinked; the destructor closes it.
struct Segment {
  uint32_t seq = 0;
  int fd = -1;
  std::string path;
  uint64_t size = 0;  ///< append offset == bytes of valid records + header
  /// Payload bytes of all put records in the file vs. those still indexed;
  /// the difference is reclaimable garbage (delete tombstones and duplicate
  /// put records carry no live payload).
  uint64_t total_payload = 0;
  uint64_t live_payload = 0;

  ~Segment() {
    if (fd >= 0) ::close(fd);
  }
  double DeadRatio() const {
    if (total_payload == 0) return size > kSegmentHeaderSize ? 1.0 : 0.0;
    return 1.0 - static_cast<double>(live_payload) /
                     static_cast<double>(total_payload);
  }
};

/// Buffered sequential reader for segment scans: bytes come out of a
/// kScanChunk staging buffer refilled with large preads, so a scan
/// costs O(file_size / kScanChunk) syscalls instead of two per record.
/// Payloads bigger than a chunk bypass the buffer and read straight into
/// the destination.
class ChunkReader {
 public:
  ChunkReader(std::atomic<uint64_t>* reads, int fd, const std::string& path,
              uint64_t file_size)
      : reads_(reads), fd_(fd), path_(path), file_size_(file_size) {}

  Status Read(uint64_t off, char* dst, size_t n) {
    while (n > 0) {
      if (off >= buf_off_ && off < buf_off_ + buf_len_) {
        size_t take = buf_off_ + buf_len_ - off;
        if (take > n) take = n;
        std::memcpy(dst, buffer_.data() + (off - buf_off_), take);
        off += take;
        dst += take;
        n -= take;
        continue;
      }
      if (off + n > file_size_) {
        return Status::Corruption(StrFormat(
            "short read: %s @%llu: %llu bytes past EOF", path_.c_str(),
            static_cast<unsigned long long>(off),
            static_cast<unsigned long long>(off + n - file_size_)));
      }
      if (n >= kScanChunk) return CountedPread(reads_, fd_, dst, n, off, path_);
      size_t fill = kScanChunk;
      if (fill > file_size_ - off) fill = file_size_ - off;
      buffer_.resize(fill);
      BS_RETURN_NOT_OK(
          CountedPread(reads_, fd_, buffer_.data(), fill, off, path_));
      buf_off_ = off;
      buf_len_ = fill;
    }
    return Status::OK();
  }

 private:
  std::atomic<uint64_t>* reads_;
  int fd_;
  const std::string& path_;
  uint64_t file_size_;
  std::string buffer_;
  uint64_t buf_off_ = 0;
  size_t buf_len_ = 0;
};

/// Walks the records of a segment file, invoking `fn(header, payload_offset,
/// payload)` for every structurally valid record, and returns the byte offset
/// of the first torn/corrupt record (== `file_size` when the tail is clean).
using RecordFn =
    std::function<void(const RecordHeader&, uint64_t, const std::string&)>;

uint64_t ScanRecords(std::atomic<uint64_t>* reads, int fd,
                     const std::string& path, uint64_t file_size,
                     const RecordFn& fn) {
  ChunkReader reader(reads, fd, path, file_size);
  uint64_t off = kSegmentHeaderSize;
  char header[kRecordHeaderSize];
  std::string payload;
  while (off + kRecordHeaderSize <= file_size) {
    if (!reader.Read(off, header, kRecordHeaderSize).ok()) return off;
    RecordHeader h;
    if (!DecodeRecordHeader(header, &h)) return off;
    if (h.len > kMaxRecordPayload) return off;
    if (off + kRecordHeaderSize + h.len > file_size) return off;
    payload.resize(h.len);
    if (h.len > 0 &&
        !reader.Read(off + kRecordHeaderSize, payload.data(), h.len).ok())
      return off;
    if (!RecordCrcMatches(header, h, Slice(payload))) return off;
    fn(h, off + kRecordHeaderSize, payload);
    off += kRecordHeaderSize + h.len;
  }
  return off;
}

class LogPageStore : public PageStore {
 public:
  LogPageStore(std::string dir, LogPageStoreOptions opts)
      : dir_(std::move(dir)), opts_(opts) {
    init_error_ = Open();
    if (!init_error_.ok()) {
      BS_LOG(Error) << "pagelog open " << dir_
                    << " failed: " << init_error_.ToString();
    }
  }

  ~LogPageStore() override {
    // Best-effort durability on clean shutdown when running with sync off.
    if (init_error_.ok() && active_) {
      Status s = SyncSegment(*active_);
      if (!s.ok()) {
        BS_LOG(Warn) << "pagelog shutdown flush of " << dir_
                     << " failed: " << s.ToString()
                     << " (records in the open durability window may be lost)";
      }
    }
    if (dir_fd_ >= 0) ::close(dir_fd_);
  }

  Status Put(const PageId& id, Slice data) override {
    BS_RETURN_NOT_OK(init_error_);
    uint64_t seq = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.writes++;
      auto it = index_.find(id);
      if (it != index_.end()) {
        if (it->second.len != data.size())
          return Status::AlreadyExists(
              "page object rewritten with new content: " + id.ToString());
        // Idempotent replay of a retried RPC — but the original append may
        // not be durable yet (its sync failed or is still in flight), so
        // the replay must still wait for a covering flush before acking.
        seq = append_seq_;
      } else {
        Entry e;
        BS_RETURN_NOT_OK(AppendLocked(kRecordPut, id, data, &e));
        index_.emplace(id, e);
        active_->live_payload += data.size();
        stats_.pages++;
        stats_.bytes += data.size();
        seq = append_seq_;
      }
    }
    if (opts_.sync) return SyncTo(seq);
    return Status::OK();
  }

  Status Read(const PageId& id, uint64_t offset, uint64_t len,
              std::string* out) override {
    BS_RETURN_NOT_OK(init_error_);
    Entry e;
    std::shared_ptr<Segment> seg;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.reads++;
      auto it = index_.find(id);
      if (it == index_.end()) return Status::NotFound("page " + id.ToString());
      e = it->second;
      seg = segments_.at(e.seq);
    }
    BS_RETURN_NOT_OK(provider::CheckReadRange(e.len, offset, &len));
    out->resize(len);
    if (len == 0) return Status::OK();
    // Record payloads are immutable once indexed, so the read needs no store
    // lock; the shared_ptr keeps the fd usable even if compaction unlinks the
    // file.
    return CountedPread(&preads_, seg->fd, out->data(), len, e.offset + offset,
                        seg->path)
        .WithContext("page " + id.ToString());
  }

  Status Delete(const PageId& id) override {
    BS_RETURN_NOT_OK(init_error_);
    uint64_t seq = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.deletes++;
      auto it = index_.find(id);
      if (it == index_.end()) {
        // Idempotent retry: an earlier Delete may have appended the
        // tombstone without its sync completing, so still wait for a
        // covering flush before acking.
        seq = append_seq_;
      } else {
        Entry e = it->second;
        // Tombstone payload names the segment holding the put record it
        // kills, so a tombstone replayed out of original order (after
        // compaction re-logs it) can never delete a newer incarnation of
        // the id.
        char target[8];
        wire::PutU64(target, e.seq);
        Entry ignored;
        BS_RETURN_NOT_OK(
            AppendLocked(kRecordDelete, id, Slice(target, 8), &ignored));
        // A crashed compaction can leave duplicate put records for this id
        // in other segments (found at recovery); each needs its own
        // tombstone or the id resurrects once the indexed record's segment
        // is compacted away.
        auto ex = extra_puts_.find(id);
        if (ex != extra_puts_.end()) {
          for (uint32_t dup_seq : ex->second) {
            if (segments_.count(dup_seq) == 0) continue;
            wire::PutU64(target, dup_seq);
            BS_RETURN_NOT_OK(
                AppendLocked(kRecordDelete, id, Slice(target, 8), &ignored));
          }
          extra_puts_.erase(ex);
        }
        index_.erase(id);
        auto seg = segments_.find(e.seq);
        if (seg != segments_.end()) seg->second->live_payload -= e.len;
        stats_.pages--;
        stats_.bytes -= e.len;
        seq = append_seq_;
      }
    }
    if (opts_.sync) BS_RETURN_NOT_OK(SyncTo(seq));
    return MaybeAutoCompact();
  }

  /// Delete-driven compaction trigger (compact_dead_ratio > 0): runs a
  /// full Compact() once any sealed segment crossed the threshold.
  /// Serialized by Compact()'s own lock, so concurrent deletes just queue.
  Status MaybeAutoCompact() {
    if (opts_.compact_dead_ratio <= 0) return Status::OK();
    bool trigger = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [seq, seg] : segments_) {
        if (seg == active_) continue;
        if (seg->DeadRatio() >= opts_.compact_dead_ratio) {
          trigger = true;
          break;
        }
      }
    }
    return trigger ? Compact() : Status::OK();
  }

  Status Compact() override {
    BS_RETURN_NOT_OK(init_error_);
    // One compaction at a time; readers and writers stay concurrent.
    std::lock_guard<std::mutex> compact_lock(compact_mu_);

    std::vector<std::shared_ptr<Segment>> victims;
    std::set<uint32_t> victim_seqs;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [seq, seg] : segments_) {
        if (seg == active_) continue;
        if (seg->DeadRatio() >= opts_.compact_min_dead_ratio) {
          victims.push_back(seg);
          victim_seqs.insert(seq);
        }
      }
    }

    for (const auto& victim : victims) {
      BS_RETURN_NOT_OK(CompactSegment(*victim, victim_seqs));
      // Copies and re-logged tombstones must be durable before the only
      // other copy of the data disappears.
      BS_RETURN_NOT_OK(SyncActive());
      std::string path = dir_ + "/" + SegmentFileName(victim->seq);
      {
        std::lock_guard<std::mutex> lock(mu_);
        segments_.erase(victim->seq);
        // Duplicate records the victim held are gone with its file.
        for (auto ex = extra_puts_.begin(); ex != extra_puts_.end();) {
          auto& v = ex->second;
          v.erase(std::remove(v.begin(), v.end(), victim->seq), v.end());
          ex = v.empty() ? extra_puts_.erase(ex) : std::next(ex);
        }
        stats_.compactions++;
      }
      if (::unlink(path.c_str()) != 0)
        return ErrnoError("unlink " + path);
      BS_RETURN_NOT_OK(SyncDir());
    }
    return Status::OK();
  }

  PageStoreStats GetStats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    PageStoreStats st = stats_;
    st.segments = segments_.size();
    st.dead_bytes = 0;
    for (const auto& [seq, seg] : segments_)
      st.dead_bytes += seg->total_payload - seg->live_payload;
    st.read_syscalls = preads_.load(std::memory_order_relaxed);
    return st;
  }

 private:
  struct Entry {
    uint32_t seq = 0;      ///< segment holding the record
    uint64_t offset = 0;   ///< payload offset within the segment file
    uint32_t len = 0;      ///< payload length
  };

  /// Creates the store directory (and parents), opens/recovers segments.
  Status Open() {
    std::string partial;
    for (const char c : dir_ + "/") {
      if (c == '/' && !partial.empty()) ::mkdir(partial.c_str(), 0755);
      partial.push_back(c);
    }
    dir_fd_ = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd_ < 0) return ErrnoError("open dir " + dir_);

    std::vector<uint32_t> seqs;
    DIR* d = ::opendir(dir_.c_str());
    if (!d) return ErrnoError("opendir " + dir_);
    while (struct dirent* ent = ::readdir(d)) {
      unsigned seq = 0;
      char trailer = 0;
      if (::sscanf(ent->d_name, "segment-%8u.lo%c", &seq, &trailer) == 2 &&
          trailer == 'g')
        seqs.push_back(seq);
    }
    ::closedir(d);
    std::sort(seqs.begin(), seqs.end());

    Stopwatch recovery_timer;
    for (uint32_t seq : seqs) BS_RETURN_NOT_OK(RecoverSegment(seq));
    if (!seqs.empty()) stats_.recovery_us = recovery_timer.ElapsedMicros();
    if (segments_.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      BS_RETURN_NOT_OK(CreateSegmentLocked(1));
    } else {
      active_ = segments_.rbegin()->second;
    }
    return Status::OK();
  }

  /// Opens one existing segment, replays its records into the index and
  /// truncates a torn tail. Called in ascending segment order.
  Status RecoverSegment(uint32_t seq) {
    std::string path = dir_ + "/" + SegmentFileName(seq);
    int fd = ::open(path.c_str(), O_RDWR);
    if (fd < 0) return ErrnoError("open " + path);
    auto seg = std::make_shared<Segment>();
    seg->seq = seq;
    seg->fd = fd;
    seg->path = path;

    struct stat st;
    if (::fstat(fd, &st) != 0) return ErrnoError("fstat " + path);
    uint64_t file_size = static_cast<uint64_t>(st.st_size);

    char header[kSegmentHeaderSize];
    uint64_t hdr_seq = 0;
    bool header_ok =
        file_size >= kSegmentHeaderSize &&
        CountedPread(&preads_, fd, header, kSegmentHeaderSize, 0, path).ok() &&
        DecodeSegmentHeader(header, &hdr_seq) && hdr_seq == seq;
    if (!header_ok) {
      // A segment whose header never hit the disk holds nothing durable;
      // reset it to an empty segment.
      BS_LOG(Warn) << "pagelog: resetting segment with bad header: " << path;
      if (::ftruncate(fd, 0) != 0) return ErrnoError("ftruncate " + path);
      EncodeSegmentHeader(seq, header);
      BS_RETURN_NOT_OK(PwriteFull(fd, header, kSegmentHeaderSize, 0, path));
      file_size = kSegmentHeaderSize;
    }

    segments_.emplace(seq, seg);
    uint64_t valid_end = ScanRecords(
        &preads_, fd, path, file_size,
        [&](const RecordHeader& h, uint64_t payload_off,
            const std::string& payload) {
          if (h.type == kRecordPut) {
            seg->total_payload += h.len;
            auto [it, inserted] = index_.try_emplace(
                h.id, Entry{seq, payload_off, h.len});
            if (inserted) {
              seg->live_payload += h.len;
              stats_.pages++;
              stats_.bytes += h.len;
            } else {
              // Duplicate left by a crashed compaction copy: dead bytes,
              // but remember it so a future Delete can tombstone every
              // on-disk incarnation of the id.
              auto& extras = extra_puts_[h.id];
              if (std::find(extras.begin(), extras.end(), seq) ==
                  extras.end())
                extras.push_back(seq);
            }
          } else if (h.type == kRecordDelete && payload.size() == 8) {
            uint64_t target = wire::GetU64(payload.data());
            auto it = index_.find(h.id);
            if (it != index_.end() && it->second.seq == target) {
              auto home = segments_.find(it->second.seq);
              if (home != segments_.end())
                home->second->live_payload -= it->second.len;
              stats_.pages--;
              stats_.bytes -= it->second.len;
              index_.erase(it);
            }
            DropExtra(h.id, static_cast<uint32_t>(target));
          }
        });
    if (valid_end < file_size) {
      BS_LOG(Warn) << "pagelog: dropping torn tail of " << path << " at byte "
                   << valid_end << " (file size " << file_size << ")";
      if (::ftruncate(fd, static_cast<off_t>(valid_end)) != 0)
        return ErrnoError("ftruncate " + path);
    }
    seg->size = valid_end;
    return Status::OK();
  }

  Status CreateSegmentLocked(uint32_t seq) {
    std::string path = dir_ + "/" + SegmentFileName(seq);
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return ErrnoError("open " + path);
    auto seg = std::make_shared<Segment>();
    seg->seq = seq;
    seg->fd = fd;
    seg->path = path;
    char header[kSegmentHeaderSize];
    EncodeSegmentHeader(seq, header);
    Status s = PwriteFull(fd, header, kSegmentHeaderSize, 0, path);
    if (!s.ok()) {
      ::unlink(path.c_str());
      return s;
    }
    stats_.bytes_written += kSegmentHeaderSize;
    seg->size = kSegmentHeaderSize;
    // Persist the directory entry so the segment file itself survives a
    // crash (its records are made durable by the group-commit syncs).
    if (::fsync(dir_fd_) != 0) return ErrnoError("fsync dir " + dir_);
    stats_.syncs++;
    segments_.emplace(seq, seg);
    active_ = seg;
    return Status::OK();
  }

  /// Seals the active segment (syncing it) and opens the next one.
  Status RotateLocked() {
    BS_RETURN_NOT_OK(SyncSegment(*active_));
    stats_.syncs++;
    return CreateSegmentLocked(active_->seq + 1);
  }

  /// Appends one record to the active segment (rotating first if the target
  /// size would be exceeded) and bumps the append sequence number. Caller
  /// holds mu_ and updates index/live accounting.
  Status AppendLocked(RecordType type, const PageId& id, Slice payload,
                      Entry* out) {
    uint64_t rec_size = kRecordHeaderSize + payload.size();
    if (active_->size > kSegmentHeaderSize &&
        active_->size + rec_size > opts_.segment_target_bytes)
      BS_RETURN_NOT_OK(RotateLocked());

    char header[kRecordHeaderSize];
    EncodeRecordHeader(type, id, payload, header);
    Segment& seg = *active_;
    uint64_t off = seg.size;
    Status s = PwriteFull(seg.fd, header, kRecordHeaderSize, off, seg.path);
    if (s.ok() && !payload.empty()) {
      s = PwriteFull(seg.fd, payload.data(), payload.size(),
                     off + kRecordHeaderSize, seg.path);
    }
    if (!s.ok()) {
      // Roll back the partial record so the file keeps matching the
      // in-memory size.
      if (::ftruncate(seg.fd, static_cast<off_t>(off)) != 0) {
        Status rb = ErrnoStatus("ftruncate", seg.path, off);
        BS_LOG(Warn) << "pagelog: append rollback of " << seg.path
                     << " failed: " << rb.ToString();
      }
      return s;
    }
    stats_.bytes_written += rec_size;
    seg.size += rec_size;
    if (type == kRecordPut) seg.total_payload += payload.size();
    append_seq_++;
    out->seq = seg.seq;
    out->offset = off + kRecordHeaderSize;
    out->len = static_cast<uint32_t>(payload.size());
    return Status::OK();
  }

  /// Group commit: blocks until every record appended up to sequence number
  /// `seq` is durable. The first waiter becomes the leader and issues one
  /// fdatasync covering everything appended so far; writers arriving while
  /// it is in flight coalesce into the next flush.
  Status SyncTo(uint64_t seq) {
    std::unique_lock<std::mutex> l(sync_mu_);
    while (synced_seq_ < seq) {
      if (sync_in_flight_) {
        sync_cv_.wait(l);
        continue;
      }
      sync_in_flight_ = true;
      uint64_t target;
      std::shared_ptr<Segment> seg;
      {
        std::lock_guard<std::mutex> lock(mu_);
        target = append_seq_;
        seg = active_;
      }
      l.unlock();
      // Records up to `target` are either in `seg` or in a segment that was
      // synced when it was sealed, so one fdatasync of `seg` covers them
      // all. Holding the shared_ptr keeps its fd open even if a rotation
      // seals it and compaction drops it while the sync is in flight.
      Status fs = SyncSegment(*seg);
      l.lock();
      sync_in_flight_ = false;
      sync_cv_.notify_all();
      if (!fs.ok()) return fs;
      if (target > synced_seq_) synced_seq_ = target;
      std::lock_guard<std::mutex> lock(mu_);
      stats_.syncs++;
    }
    return Status::OK();
  }

  /// Unconditional sync of the active segment (compaction durability).
  Status SyncActive() {
    std::shared_ptr<Segment> seg;
    {
      std::lock_guard<std::mutex> lock(mu_);
      seg = active_;
    }
    BS_RETURN_NOT_OK(SyncSegment(*seg));
    std::lock_guard<std::mutex> lock(mu_);
    stats_.syncs++;
    return Status::OK();
  }

  static Status SyncSegment(const Segment& seg) {
    if (::fdatasync(seg.fd) != 0) return ErrnoStatus("fdatasync", seg.path, 0);
    return Status::OK();
  }

  Status SyncDir() {
    if (::fsync(dir_fd_) != 0) return ErrnoError("fsync dir " + dir_);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.syncs++;
    return Status::OK();
  }

  /// Rewrites the live records of `victim` into the active segment and
  /// re-logs the tombstones other surviving segments still depend on.
  Status CompactSegment(const Segment& victim,
                        const std::set<uint32_t>& victim_seqs) {
    Status io = Status::OK();
    ScanRecords(
        &preads_, victim.fd, victim.path, victim.size,
        [&](const RecordHeader& h, uint64_t payload_off,
            const std::string& payload) {
          if (!io.ok()) return;
          std::lock_guard<std::mutex> lock(mu_);
          if (h.type == kRecordPut) {
            auto it = index_.find(h.id);
            // Copy only if the index still points at exactly this record
            // (a concurrent Delete may have killed it mid-pass).
            if (it == index_.end() || it->second.seq != victim.seq ||
                it->second.offset != payload_off)
              return;
            Entry moved;
            io = AppendLocked(kRecordPut, h.id, Slice(payload), &moved);
            if (!io.ok()) return;
            it->second = moved;
            active_->live_payload += h.len;
            // Until the victim file is actually unlinked there are two
            // on-disk put records for this id; track the old one so a
            // Delete after a failed/crashed pass still tombstones it
            // (Compact()'s cleanup drops the marker once the unlink lands).
            auto& extras = extra_puts_[h.id];
            if (std::find(extras.begin(), extras.end(), victim.seq) ==
                extras.end())
              extras.push_back(victim.seq);
          } else if (h.type == kRecordDelete && payload.size() == 8) {
            uint64_t target = wire::GetU64(payload.data());
            // The tombstone is still load-bearing if the segment holding the
            // put record it kills survives this pass: without it, recovery
            // would resurrect the deleted page.
            if (segments_.count(static_cast<uint32_t>(target)) == 0 ||
                victim_seqs.count(static_cast<uint32_t>(target)) != 0)
              return;
            Entry ignored;
            io = AppendLocked(kRecordDelete, h.id, Slice(payload), &ignored);
          }
        });
    return io;
  }

  const std::string dir_;
  const LogPageStoreOptions opts_;
  Status init_error_;
  int dir_fd_ = -1;

  /// Removes a recovered-duplicate marker once its record is tombstoned or
  /// its segment disappears.
  void DropExtra(const PageId& id, uint32_t seq) {
    auto ex = extra_puts_.find(id);
    if (ex == extra_puts_.end()) return;
    auto& v = ex->second;
    v.erase(std::remove(v.begin(), v.end(), seq), v.end());
    if (v.empty()) extra_puts_.erase(ex);
  }

  mutable std::mutex mu_;
  std::unordered_map<PageId, Entry> index_;
  /// Segments of duplicate put records found during recovery (crashed
  /// compaction leftovers), keyed by page id; normally empty.
  std::unordered_map<PageId, std::vector<uint32_t>> extra_puts_;
  std::map<uint32_t, std::shared_ptr<Segment>> segments_;
  std::shared_ptr<Segment> active_;
  uint64_t append_seq_ = 0;
  PageStoreStats stats_;
  /// Preads issued (stats' read_syscalls). Reads run outside mu_, so the
  /// counter lives apart from stats_.
  std::atomic<uint64_t> preads_{0};

  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  uint64_t synced_seq_ = 0;
  bool sync_in_flight_ = false;

  std::mutex compact_mu_;
};

}  // namespace

std::unique_ptr<provider::PageStore> MakeLogPageStore(
    const std::string& dir, LogPageStoreOptions opts) {
  return std::make_unique<LogPageStore>(dir, opts);
}

}  // namespace blobseer::pagelog
