#include "dht/store.h"

#include <cstring>

#include "common/hash.h"

namespace blobseer::dht {

namespace {

std::string_view View(Slice s) { return s.ToStringView(); }

void CopyBytes(char* dst, Slice src) {
  if (!src.empty()) std::memcpy(dst, src.data(), src.size());
}

}  // namespace

KvStore::KvStore(size_t num_shards)
    : shards_(num_shards == 0 ? 1 : num_shards) {}

size_t KvStore::ShardFor(Slice key) const {
  return static_cast<size_t>(Fnv1a64(key)) % shards_.size();
}

void KvStore::Install(Shard& s, Slice key, Slice value) {
  auto it = s.map.find(View(key));
  if (it != s.map.end() && it->second.value_size == value.size()) {
    CopyBytes(it->second.block.get() + key.size(), value);
    return;
  }
  auto block = std::make_unique_for_overwrite<char[]>(key.size() + value.size());
  CopyBytes(block.get(), key);
  CopyBytes(block.get() + key.size(), value);
  std::string_view view(block.get(), key.size());
  if (it == s.map.end()) {
    s.map.emplace(view, Slot{std::move(block), value.size()});
    keys_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(key.size() + value.size(), std::memory_order_relaxed);
    return;
  }
  // A new value size needs a new block; the node's key view moves with it.
  bytes_.fetch_sub(it->second.value_size, std::memory_order_relaxed);
  bytes_.fetch_add(value.size(), std::memory_order_relaxed);
  auto node = s.map.extract(it);
  node.key() = view;
  node.mapped() = Slot{std::move(block), value.size()};
  s.map.insert(std::move(node));
}

Status KvStore::Put(Slice key, Slice value) {
  puts_.fetch_add(1, std::memory_order_relaxed);
  Shard& s = shards_[ShardFor(key)];
  std::lock_guard<std::mutex> lock(s.mu);
  Install(s, key, value);
  return Status::OK();
}

Status KvStore::Get(Slice key, std::string* value) {
  gets_.fetch_add(1, std::memory_order_relaxed);
  Shard& s = shards_[ShardFor(key)];
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(View(key));
  if (it == s.map.end()) return Status::NotFound("dht key");
  hits_.fetch_add(1, std::memory_order_relaxed);
  value->assign(it->second.block.get() + key.size(), it->second.value_size);
  return Status::OK();
}

Status KvStore::Delete(Slice key) {
  deletes_.fetch_add(1, std::memory_order_relaxed);
  Shard& s = shards_[ShardFor(key)];
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(View(key));
  if (it != s.map.end()) {
    bytes_.fetch_sub(key.size() + it->second.value_size,
                     std::memory_order_relaxed);
    keys_.fetch_sub(1, std::memory_order_relaxed);
    s.map.erase(it);
  }
  return Status::OK();
}

Status KvStore::Cas(Slice key, Slice expected, Slice value,
                    bool expect_absent, bool* applied, bool* present,
                    std::string* current) {
  *applied = false;
  Shard& s = shards_[ShardFor(key)];
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(View(key));
  const bool exists = it != s.map.end();
  const Slice stored =
      exists ? Slice(it->second.block.get() + key.size(),
                     it->second.value_size)
             : Slice();
  const bool match = expect_absent ? !exists : exists && stored == expected;
  if (match) {
    puts_.fetch_add(1, std::memory_order_relaxed);
    Install(s, key, value);
    *applied = true;
    *present = true;
    *current = value.ToString();
    return Status::OK();
  }
  *present = exists;
  *current = stored.ToString();
  return Status::OK();
}

StoreStats KvStore::GetStats() const {
  StoreStats st;
  st.keys = keys_.load();
  st.bytes = bytes_.load();
  st.puts = puts_.load();
  st.gets = gets_.load();
  st.hits = hits_.load();
  st.deletes = deletes_.load();
  return st;
}

}  // namespace blobseer::dht
