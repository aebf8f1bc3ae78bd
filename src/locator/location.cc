#include "locator/location.h"

#include "common/string_util.h"

namespace blobseer::locator {

std::string LocationKey(const PageId& pid) {
  BinaryWriter w;
  w.PutU8('L');  // namespace tag: page location entry
  w.PutPageId(pid);
  return std::move(w).TakeBuffer();
}

std::string LocationEntry::ToString() const {
  std::string out = StrFormat(
      "loc{epoch=%llu refs=%u r=%zu [",
      static_cast<unsigned long long>(epoch), refs, providers.size());
  for (size_t i = 0; i < providers.size(); i++) {
    if (i > 0) out += ' ';
    out += StrFormat("%u", providers[i]);
  }
  out += "]}";
  return out;
}

namespace {

Result<LocationEntry> DecodeEntry(const std::string& bytes) {
  LocationEntry entry;
  BS_RETURN_NOT_OK(DecodePayload(Slice(bytes), &entry));
  if (!entry.valid()) return Status::Corruption("invalid location entry");
  return entry;
}

}  // namespace

LocationIndex::LocationIndex(dht::DhtClient* dht, size_t cache_capacity)
    : dht_(dht), capacity_(cache_capacity) {}

bool LocationIndex::CacheLookup(const PageId& pid, LocationEntry* entry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(pid);
  if (it == cache_.end()) {
    stats_.misses++;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *entry = it->second->second;
  stats_.hits++;
  return true;
}

void LocationIndex::CacheInsert(const PageId& pid,
                                const LocationEntry& entry) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(pid);
  if (it != cache_.end()) {
    // Keep the higher epoch: a stale resolve racing a fresh CAS result must
    // not roll the cache backwards.
    if (entry.epoch >= it->second->second.epoch) it->second->second = entry;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(pid, entry);
  cache_[pid] = lru_.begin();
  if (cache_.size() > capacity_) {
    cache_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

Future<LocationEntry> LocationIndex::ResolveAsync(const PageId& pid) {
  LocationEntry entry;
  if (CacheLookup(pid, &entry))
    return MakeReadyFuture<LocationEntry>(std::move(entry));
  return dht_->GetAsync(Slice(LocationKey(pid)))
      .Then([this, pid](Result<std::string> bytes) -> Result<LocationEntry> {
        if (!bytes.ok()) return bytes.status();
        Result<LocationEntry> decoded = DecodeEntry(*bytes);
        if (decoded.ok()) CacheInsert(pid, *decoded);
        return decoded;
      });
}

LocationEntry LocationIndex::FreshEntry(std::vector<ProviderId> providers,
                                       uint64_t hash_hi, uint64_t hash_lo) {
  return LocationEntry{1, std::move(providers), 1, hash_hi, hash_lo};
}

dht::PutRequest LocationIndex::PublishPut(const PageId& pid,
                                          const LocationEntry& entry) {
  return dht::PutRequest{LocationKey(pid), EncodePayload(entry)};
}

void LocationIndex::NotePublished(const PageId& pid,
                                  const LocationEntry& entry) {
  CacheInsert(pid, entry);
}

Future<LocationEntry> LocationIndex::CompareAndSwapEntryAsync(
    const PageId& pid, const LocationEntry& expected, LocationEntry next) {
  next.epoch = expected.epoch + 1;
  auto installed = std::make_shared<LocationEntry>(std::move(next));
  return dht_
      ->CasAsync(Slice(LocationKey(pid)), Slice(EncodePayload(expected)),
                 Slice(EncodePayload(*installed)),
                 /*expect_absent=*/false)
      .Then([this, pid,
             installed](Result<dht::CasResponse> r) -> Result<LocationEntry> {
        if (!r.ok()) return r.status();
        if (r->applied) {
          CacheInsert(pid, *installed);
          return std::move(*installed);
        }
        Invalidate(pid);
        if (r->current.empty())
          return Status::NotFound("location entry deleted");
        Result<LocationEntry> stored = DecodeEntry(r->current);
        if (stored.ok()) CacheInsert(pid, *stored);
        return Status::Aborted("location entry changed: " +
                               (stored.ok() ? stored->ToString()
                                            : r->current));
      });
}

Future<LocationEntry> LocationIndex::AdjustRefsAsync(const PageId& pid,
                                                     int32_t delta,
                                                     int max_retries) {
  return dht_->GetAsync(Slice(LocationKey(pid)))
      .Then([this, pid, delta,
             max_retries](Result<std::string> bytes) -> Future<LocationEntry> {
        if (!bytes.ok()) {
          Invalidate(pid);
          return MakeReadyFuture<LocationEntry>(bytes.status());
        }
        Result<LocationEntry> cur = DecodeEntry(*bytes);
        if (!cur.ok()) return MakeReadyFuture<LocationEntry>(cur.status());
        if (cur->condemned()) {
          return MakeReadyFuture<LocationEntry>(
              Status::FailedPrecondition("location entry condemned"));
        }
        LocationEntry next = *cur;
        next.refs = delta < 0 && uint32_t(-delta) >= next.refs
                        ? 0
                        : next.refs + uint32_t(delta);
        return CompareAndSwapEntryAsync(pid, *cur, std::move(next))
            .Then([this, pid, delta, max_retries](
                      Result<LocationEntry> swapped) -> Future<LocationEntry> {
              if (swapped.ok() || !swapped.status().IsAborted() ||
                  max_retries == 0) {
                return MakeReadyFuture<LocationEntry>(std::move(swapped));
              }
              return AdjustRefsAsync(pid, delta, max_retries - 1);
            });
      });
}

Future<Unit> LocationIndex::DeleteEntryAsync(const PageId& pid) {
  return dht_->DeleteAsync(Slice(LocationKey(pid)))
      .Then([this, pid](Result<Unit> r) -> Result<Unit> {
        Invalidate(pid);
        return r;
      });
}

void LocationIndex::Invalidate(const PageId& pid) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(pid);
  if (it == cache_.end()) return;
  lru_.erase(it->second);
  cache_.erase(it);
  stats_.invalidations++;
}

void LocationIndex::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.invalidations += cache_.size();
  cache_.clear();
  lru_.clear();
}

LocationIndexStats LocationIndex::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace blobseer::locator
