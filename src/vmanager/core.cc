#include "vmanager/core.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/string_util.h"
#include "common/tree_layout.h"

namespace blobseer::vmanager {

VersionManagerCore::~VersionManagerCore() {
  // Fire remaining subscriptions outside mu_ — a callback may touch other
  // locks (it must not touch this core; there is no core left to touch).
  std::map<uint64_t, PublishWaiter> orphans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    orphans.swap(waiters_);
  }
  for (auto& [token, w] : orphans)
    w.done(Status::Unavailable("version manager shutting down"));
}

Result<BlobDescriptor> VersionManagerCore::CreateBlob(uint64_t psize) {
  if (psize == 0 || !IsPow2(psize) || psize > (1ull << 30)) {
    return Status::InvalidArgument(
        StrFormat("page size must be a power of two in [1, 2^30], got %llu",
                  static_cast<unsigned long long>(psize)));
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto blob = std::make_unique<BlobMeta>();
  blob->id = next_blob_id_++;
  blob->psize = psize;
  blob->ancestry.push_back(AncestrySegment{blob->id, kMaxVersion});
  BlobDescriptor desc;
  desc.id = blob->id;
  desc.psize = psize;
  desc.ancestry = blob->ancestry;
  blobs_.emplace(blob->id, std::move(blob));
  return desc;
}

VersionManagerCore::BlobMeta* VersionManagerCore::FindLocked(BlobId id) {
  auto it = blobs_.find(id);
  return it == blobs_.end() ? nullptr : it->second.get();
}

Result<BlobDescriptor> VersionManagerCore::OpenBlob(BlobId id,
                                                    Version* published,
                                                    uint64_t* published_size) {
  std::lock_guard<std::mutex> lock(mu_);
  BlobMeta* blob = FindLocked(id);
  if (!blob) return Status::NotFound("blob " + std::to_string(id));
  BlobDescriptor desc;
  desc.id = blob->id;
  desc.psize = blob->psize;
  desc.ancestry = blob->ancestry;
  if (published) *published = blob->published;
  if (published_size) *published_size = blob->published_size;
  return desc;
}

Result<uint64_t> VersionManagerCore::SizeOfVersionLocked(BlobMeta* blob,
                                                         Version v) {
  if (v == 0) return uint64_t{0};
  BlobMeta* cur = blob;
  while (v <= cur->branch_version) {
    cur = FindLocked(cur->parent);
    if (!cur) return Status::Internal("broken branch ancestry");
  }
  auto it = cur->updates.find(v);
  if (it == cur->updates.end())
    return Status::NotFound(StrFormat("version %llu never assigned",
                                      static_cast<unsigned long long>(v)));
  return it->second.size_after;
}

std::vector<BorderEntry> VersionManagerCore::ComputeBordersLocked(
    BlobMeta* blob, Version vw, const Extent& range, uint64_t old_size,
    uint64_t new_size) {
  std::vector<Extent> targets =
      BorderBlocks(range, old_size, new_size, blob->psize);
  std::vector<BorderEntry> out;
  if (targets.empty()) return out;

  // In-flight updates are the assigned-but-unpublished versions below vw
  // (paper 4.2). Scan newest-first so the first hit is the right label.
  // Aborted (unrepaired) updates still count: their node set will exist
  // with zero-fill semantics once repaired, and publication order ensures
  // readers never observe the gap.
  auto lo = blob->updates.upper_bound(blob->published);
  auto hi = blob->updates.lower_bound(vw);
  for (const Extent& block : targets) {
    Version found = kNoVersion;
    for (auto it = std::make_reverse_iterator(hi),
              rend = std::make_reverse_iterator(lo);
         it != rend; ++it) {
      const UpdateRecord& rec = it->second;
      if (NodeSetContains(block, rec.range, rec.size_after, blob->psize)) {
        found = it->first;
        break;
      }
    }
    if (found != kNoVersion) out.push_back(BorderEntry{block, found});
  }
  return out;
}

Result<AssignTicket> VersionManagerCore::AssignVersion(BlobId id,
                                                       bool is_append,
                                                       uint64_t offset,
                                                       uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  BlobMeta* blob = FindLocked(id);
  if (!blob) return Status::NotFound("blob " + std::to_string(id));
  if (size == 0) return Status::InvalidArgument("update of zero bytes");

  uint64_t old_size = blob->last_assigned_size;
  if (is_append) {
    offset = old_size;
  } else if (offset > old_size) {
    return Status::OutOfRange(StrFormat(
        "write offset %llu beyond blob size %llu",
        static_cast<unsigned long long>(offset),
        static_cast<unsigned long long>(old_size)));
  }
  uint64_t new_size = std::max(old_size, offset + size);

  Version vw = blob->last_assigned + 1;
  AssignTicket ticket;
  ticket.version = vw;
  ticket.offset = offset;
  ticket.size = size;
  ticket.old_size = old_size;
  ticket.new_size = new_size;
  ticket.published = blob->published;
  ticket.published_size = blob->published_size;
  ticket.borders =
      ComputeBordersLocked(blob, vw, ticket.range(), old_size, new_size);

  UpdateRecord rec;
  rec.range = ticket.range();
  rec.size_after = new_size;
  rec.assigned_at_us = clock_->NowMicros();
  // Pin the published frontier this update's borders resolve through: its
  // tree must stay walkable until the update publishes or aborts.
  rec.ref_floor = blob->published;
  blob->updates.emplace(vw, rec);
  blob->last_assigned = vw;
  blob->last_assigned_size = new_size;
  total_assigned_++;
  return ticket;
}

void VersionManagerCore::AdvancePublishedLocked(
    BlobMeta* blob, std::vector<std::function<void(Status)>>* fired) {
  bool advanced = false;
  for (;;) {
    auto it = blob->updates.find(blob->published + 1);
    if (it == blob->updates.end() || !it->second.completed) break;
    blob->published = it->first;
    blob->published_size = it->second.size_after;
    total_published_++;
    advanced = true;
  }
  if (!advanced) return;
  publish_cv_.notify_all();
  // Detach every subscription the new frontier satisfies; the caller
  // invokes them with OK after releasing mu_.
  while (!blob->waiter_index.empty() &&
         blob->waiter_index.begin()->first <= blob->published) {
    auto idx = blob->waiter_index.begin();
    auto w = waiters_.find(idx->second);
    if (w != waiters_.end()) {
      fired->push_back(std::move(w->second.done));
      waiters_.erase(w);
    }
    blob->waiter_index.erase(idx);
  }
}

Status VersionManagerCore::NotifySuccess(BlobId id, Version version) {
  std::vector<std::function<void(Status)>> fired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    BlobMeta* blob = FindLocked(id);
    if (!blob) return Status::NotFound("blob " + std::to_string(id));
    if (version <= blob->published) return Status::OK();  // idempotent replay
    auto it = blob->updates.find(version);
    if (it == blob->updates.end())
      return Status::NotFound("version never assigned");
    it->second.completed = true;
    AdvancePublishedLocked(blob, &fired);
  }
  for (auto& done : fired) done(Status::OK());
  return Status::OK();
}

Result<AbortOutcome> VersionManagerCore::AbortUpdate(BlobId id,
                                                     Version version) {
  std::lock_guard<std::mutex> lock(mu_);
  BlobMeta* blob = FindLocked(id);
  if (!blob) return Status::NotFound("blob " + std::to_string(id));
  if (version <= blob->published)
    return Status::FailedPrecondition("version already published");
  auto it = blob->updates.find(version);
  if (it == blob->updates.end())
    return Status::NotFound("version never assigned");
  if (it->second.completed)
    return Status::FailedPrecondition("metadata already written");

  AbortOutcome outcome;
  if (version == blob->last_assigned && !it->second.aborted) {
    // Newest assigned version: nothing can reference its node set yet, so
    // the registration is simply retracted.
    blob->updates.erase(it);
    blob->last_assigned = version - 1;
    auto sz = SizeOfVersionLocked(blob, blob->last_assigned);
    if (!sz.ok()) return sz.status();
    blob->last_assigned_size = *sz;
    total_aborted_++;
    outcome.retracted = true;
    return outcome;
  }

  // Later versions may already border-link to this node set: repair it as a
  // zero-filled update so every referenced key exists (DESIGN.md 3.3).
  UpdateRecord& rec = it->second;
  if (!rec.aborted) {
    rec.aborted = true;
    total_aborted_++;
  }
  auto old_size = SizeOfVersionLocked(blob, version - 1);
  if (!old_size.ok()) return old_size.status();
  AssignTicket repair;
  repair.version = version;
  repair.offset = rec.range.offset;
  repair.size = rec.range.size;
  repair.old_size = *old_size;
  repair.new_size = rec.size_after;
  repair.published = blob->published;
  repair.published_size = blob->published_size;
  repair.borders = ComputeBordersLocked(blob, version, rec.range, *old_size,
                                        rec.size_after);
  outcome.retracted = false;
  outcome.repair = std::move(repair);
  return outcome;
}

Status VersionManagerCore::GetRecent(BlobId id, Version* version,
                                     uint64_t* size) {
  std::lock_guard<std::mutex> lock(mu_);
  BlobMeta* blob = FindLocked(id);
  if (!blob) return Status::NotFound("blob " + std::to_string(id));
  *version = blob->published;
  *size = blob->published_size;
  return Status::OK();
}

Result<uint64_t> VersionManagerCore::GetSize(BlobId id, Version version) {
  std::lock_guard<std::mutex> lock(mu_);
  BlobMeta* blob = FindLocked(id);
  if (!blob) return Status::NotFound("blob " + std::to_string(id));
  if (version > blob->published)
    return Status::NotFound(StrFormat(
        "version %llu not published", static_cast<unsigned long long>(version)));
  // A discarded snapshot is unreadable through every blob that could reach
  // it — its pages and tree nodes may already be swept.
  if (DiscardedLocked(blob, version))
    return Status::NotFound(StrFormat(
        "version %llu discarded", static_cast<unsigned long long>(version)));
  return SizeOfVersionLocked(blob, version);
}

Status VersionManagerCore::AwaitPublished(BlobId id, Version version,
                                          uint64_t timeout_us) {
  std::unique_lock<std::mutex> lock(mu_);
  BlobMeta* blob = FindLocked(id);
  if (!blob) return Status::NotFound("blob " + std::to_string(id));
  auto published = [&] { return blob->published >= version; };
  if (published()) return Status::OK();
  if (timeout_us == 0) return Status::TimedOut("not yet published");
  if (timeout_us == UINT64_MAX) {
    // "Forever" must not pass through chrono::microseconds — the uint64 max
    // becomes a negative int64 duration and times out instantly.
    publish_cv_.wait(lock, published);
    return Status::OK();
  }
  if (publish_cv_.wait_for(lock, std::chrono::microseconds(timeout_us),
                           published)) {
    return Status::OK();
  }
  return Status::TimedOut("not yet published");
}

uint64_t VersionManagerCore::SubscribePublished(
    BlobId id, Version version, std::function<void(Status)> done) {
  Status inline_outcome;
  {
    std::lock_guard<std::mutex> lock(mu_);
    BlobMeta* blob = FindLocked(id);
    if (!blob) {
      inline_outcome = Status::NotFound("blob " + std::to_string(id));
    } else if (blob->published >= version) {
      inline_outcome = Status::OK();
    } else {
      uint64_t token = next_waiter_token_++;
      waiters_.emplace(token,
                       PublishWaiter{id, version, std::move(done)});
      blob->waiter_index.emplace(version, token);
      return token;
    }
  }
  done(std::move(inline_outcome));
  return 0;
}

bool VersionManagerCore::CancelWaiter(uint64_t token, const Status& outcome) {
  std::function<void(Status)> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = waiters_.find(token);
    if (it == waiters_.end()) return false;  // already fired
    done = std::move(it->second.done);
    BlobMeta* blob = FindLocked(it->second.id);
    if (blob) {
      auto [lo, hi] = blob->waiter_index.equal_range(it->second.version);
      for (auto idx = lo; idx != hi; ++idx) {
        if (idx->second == token) {
          blob->waiter_index.erase(idx);
          break;
        }
      }
    }
    waiters_.erase(it);
  }
  done(outcome);
  return true;
}

bool VersionManagerCore::HasWaiter(uint64_t token) const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiters_.count(token) != 0;
}

size_t VersionManagerCore::waiter_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiters_.size();
}

Result<BlobDescriptor> VersionManagerCore::Branch(BlobId id, Version version) {
  std::lock_guard<std::mutex> lock(mu_);
  BlobMeta* blob = FindLocked(id);
  if (!blob) return Status::NotFound("blob " + std::to_string(id));
  if (version > blob->published)
    return Status::FailedPrecondition("branch point not published");
  if (DiscardedLocked(blob, version))
    return Status::FailedPrecondition("branch point discarded");
  auto size = SizeOfVersionLocked(blob, version);
  if (!size.ok()) return size.status();

  auto child = std::make_unique<BlobMeta>();
  child->id = next_blob_id_++;
  child->psize = blob->psize;
  child->parent = blob->id;
  child->branch_version = version;
  child->published = version;
  child->published_size = *size;
  child->last_assigned = version;
  child->last_assigned_size = *size;
  for (const AncestrySegment& seg : blob->ancestry) {
    if (seg.up_to < version) {
      child->ancestry.push_back(seg);
    } else {
      child->ancestry.push_back(AncestrySegment{seg.origin, version});
      break;
    }
  }
  child->ancestry.push_back(AncestrySegment{child->id, kMaxVersion});

  BlobDescriptor desc;
  desc.id = child->id;
  desc.psize = child->psize;
  desc.ancestry = child->ancestry;
  blobs_.emplace(child->id, std::move(child));
  return desc;
}

bool VersionManagerCore::PinnedLocked(const BlobMeta* blob,
                                      Version version) const {
  if (version == blob->published) return true;  // latest readable snapshot
  // Branch points: a child's whole history below its branch version
  // resolves through this snapshot's tree.
  for (const auto& [id, other] : blobs_) {
    if (other->parent == blob->id && other->branch_version == version)
      return true;
  }
  // In-flight updates border-link against the tree of the snapshot that was
  // published when they were assigned; that tree must stay walkable.
  for (auto it = blob->updates.upper_bound(blob->published);
       it != blob->updates.end(); ++it) {
    if (it->second.ref_floor == version) return true;
  }
  return false;
}

bool VersionManagerCore::DiscardedLocked(BlobMeta* blob, Version version) {
  if (version == 0) return false;
  BlobMeta* cur = blob;
  while (version <= cur->branch_version) {
    cur = FindLocked(cur->parent);
    if (!cur) return false;
  }
  auto it = cur->updates.find(version);
  return it != cur->updates.end() && it->second.discarded;
}

Status VersionManagerCore::SetRetention(BlobId id,
                                        const lifecycle::RetentionPolicy& p) {
  std::lock_guard<std::mutex> lock(mu_);
  BlobMeta* blob = FindLocked(id);
  if (!blob) return Status::NotFound("blob " + std::to_string(id));
  blob->retention = p;
  return Status::OK();
}

Result<lifecycle::RetentionPolicy> VersionManagerCore::GetRetention(BlobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  BlobMeta* blob = FindLocked(id);
  if (!blob) return Status::NotFound("blob " + std::to_string(id));
  return blob->retention;
}

Result<std::vector<VersionInfo>> VersionManagerCore::ListVersions(BlobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  BlobMeta* blob = FindLocked(id);
  if (!blob) return Status::NotFound("blob " + std::to_string(id));
  std::vector<VersionInfo> out;
  out.reserve(blob->updates.size());
  for (const auto& [v, rec] : blob->updates) {
    VersionInfo info;
    info.version = v;
    info.size = rec.size_after;
    info.assigned_at_us = rec.assigned_at_us;
    info.published = v <= blob->published;
    info.discarded = rec.discarded;
    info.pinned = PinnedLocked(blob, v);
    out.push_back(info);
  }
  return out;
}

Result<std::vector<BlobId>> VersionManagerCore::ListBlobs() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<BlobId> out;
  out.reserve(blobs_.size());
  for (const auto& [id, blob] : blobs_) out.push_back(id);
  return out;
}

Status VersionManagerCore::DiscardVersion(BlobId id, Version version) {
  std::lock_guard<std::mutex> lock(mu_);
  BlobMeta* blob = FindLocked(id);
  if (!blob) return Status::NotFound("blob " + std::to_string(id));
  if (version == 0 || version <= blob->branch_version)
    return Status::FailedPrecondition(
        "version not owned by this blob (discard it on its owner)");
  auto it = blob->updates.find(version);
  if (it == blob->updates.end())
    return Status::NotFound("version never assigned");
  if (version > blob->published)
    return Status::FailedPrecondition("version not published");
  if (it->second.discarded) return Status::OK();  // idempotent
  if (PinnedLocked(blob, version))
    return Status::FailedPrecondition(StrFormat(
        "version %llu pinned (latest, branch point, or in-flight floor)",
        static_cast<unsigned long long>(version)));
  // The record stays: ancestry size walks, publication bookkeeping and
  // border math still need it — only readability and GC liveness change.
  it->second.discarded = true;
  total_discarded_++;
  return Status::OK();
}

VmStats VersionManagerCore::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  VmStats st;
  st.blobs = blobs_.size();
  st.assigned = total_assigned_;
  st.published = total_published_;
  st.aborted = total_aborted_;
  st.discarded = total_discarded_;
  st.sync_waiters = waiters_.size();
  return st;
}

}  // namespace blobseer::vmanager
