// Sharded in-memory key/value store backing one DHT node.
#ifndef BLOBSEER_DHT_STORE_H_
#define BLOBSEER_DHT_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/serde.h"
#include "common/slice.h"
#include "common/status.h"

namespace blobseer::dht {

struct StoreStats {
  uint64_t keys = 0;
  uint64_t bytes = 0;
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t deletes = 0;

  BS_FIELDS(StoreStats, keys, bytes, puts, gets, hits, deletes)
};

/// Thread-safe hash map sharded by key hash to reduce lock contention under
/// the heavily concurrent metadata access the paper targets.
class KvStore {
 public:
  explicit KvStore(size_t num_shards = 16);

  /// Inserts or overwrites. Metadata nodes are immutable, so overwrites of
  /// an existing key with different bytes indicate a protocol bug; they are
  /// still applied (last-writer-wins) but counted in stats.
  Status Put(Slice key, Slice value);

  Status Get(Slice key, std::string* value);
  /// Removes the key; OK whether or not it existed (idempotent).
  Status Delete(Slice key);

  /// Atomic conditional overwrite under the key's shard lock: installs
  /// `value` iff the stored bytes equal `expected` (or iff the key is
  /// absent, with `expect_absent`). Always returns OK; `*applied` reports
  /// the outcome, `*present`/`*current` the post-call state of the key.
  Status Cas(Slice key, Slice expected, Slice value, bool expect_absent,
             bool* applied, bool* present, std::string* current);

  StoreStats GetStats() const;

 private:
  /// One entry in one heap block: the key bytes, then the value bytes. The
  /// map's key view points into the block, so each key is stored once.
  struct Slot {
    std::unique_ptr<char[]> block;
    size_t value_size = 0;
  };
  /// std::hash<std::string_view> under another name. libstdc++ treats the
  /// standard string hashes as slow and caches their result in every map
  /// node; a hasher it does not know is treated as fast, which saves those
  /// 8 bytes per key.
  struct KeyHash {
    size_t operator()(std::string_view key) const noexcept {
      return std::hash<std::string_view>{}(key);
    }
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string_view, Slot, KeyHash> map;
  };
  /// Inserts a new entry, or overwrites an existing one (last writer wins).
  void Install(Shard& s, Slice key, Slice value);
  size_t ShardFor(Slice key) const;

  std::vector<Shard> shards_;
  mutable std::atomic<uint64_t> puts_{0}, gets_{0}, hits_{0}, deletes_{0};
  std::atomic<uint64_t> bytes_{0}, keys_{0};
};

}  // namespace blobseer::dht

#endif  // BLOBSEER_DHT_STORE_H_
