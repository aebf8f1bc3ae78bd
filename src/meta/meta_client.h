// Client-side metadata engine: reads and writes segment-tree nodes in the
// DHT, walks trees for READ, and resolves border-node versions against
// published snapshots (paper section 4.2).
#ifndef BLOBSEER_META_META_CLIENT_H_
#define BLOBSEER_META_META_CLIENT_H_

#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/blob_descriptor.h"
#include "common/future.h"
#include "common/result.h"
#include "dht/client.h"
#include "meta/layout.h"
#include "meta/node.h"

namespace blobseer::meta {

struct MetaClientOptions {
  /// Tree nodes are immutable, so they are freely cacheable. The cache
  /// accelerates border descents and repeated reads; benchmarks can disable
  /// it to measure raw metadata traffic (Figure 2(a) runs cache-off).
  bool cache_enabled = true;
  size_t cache_capacity = 1 << 16;  // nodes
};

struct MetaCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t puts = 0;
};

/// A leaf reached by a tree walk: the page block it covers, the version
/// label that owns it, and its content.
struct LeafRef {
  Extent block;
  Version version = kNoVersion;
  MetaNode node;
};

class MetaClient {
 public:
  explicit MetaClient(dht::DhtClient* dht, MetaClientOptions options = {});

  /// Per-operation node memo: a writer resolving several border blocks of
  /// one update descends overlapping root-to-block paths, so nodes fetched
  /// once are reused across the whole BUILD_META (the paper computes the
  /// border set in a single descent; this keeps that cost at O(depth)
  /// fetches even with the global cache disabled). Thread-safe: one
  /// update's border resolutions run as concurrent continuation chains.
  struct SharedNodeMemo {
    std::mutex mu;
    std::unordered_map<NodeKey, MetaNode> map;
  };

  /// Node and tree operations. Continuations resolve on the DHT transport's
  /// completion context; cache hits resolve immediately on the calling
  /// thread.

  /// The DHT put that stores `node` under `key`. Writers ship these with
  /// their location entries in one multi-put wave (paper Algorithm 4's
  /// final loop).
  static dht::PutRequest NodePut(const NodeKey& key, const MetaNode& node);
  /// Caches nodes the caller has just stored: the writer is the likeliest
  /// next reader during subsequent border descents. A cached node under the
  /// same key is replaced, as in the DHT: an abort repair rewrites the
  /// failed update's keys with zero-fill leaves.
  void CacheNodes(std::vector<std::pair<NodeKey, MetaNode>> nodes);
  /// Fetches one node, through the cache.
  Future<MetaNode> GetNodeAsync(const NodeKey& key);
  /// GetNodeAsync through an optional per-operation memo.
  Future<MetaNode> GetNodeMemoizedAsync(const NodeKey& key,
                                        std::shared_ptr<SharedNodeMemo> memo);
  /// Paper Algorithm 3 (READ_META): collects every leaf of snapshot
  /// `version` whose page block intersects `range`, one parallel wave of
  /// node fetches per tree level.
  Future<std::vector<LeafRef>> ReadMetaAsync(const BranchAncestry& ancestry,
                                             Version version,
                                             uint64_t blob_size,
                                             uint64_t psize,
                                             const Extent& range);
  /// Resolves the version label of `block` within published snapshot
  /// (`published`, `published_size`) by descending from its root.
  /// Resolves to kNoVersion when the block lies beyond the published span
  /// or under a never-written hole. Fails with Internal when the block
  /// strictly contains the published root (such blocks must come from the
  /// version manager's partial border set).
  Future<Version> ResolveBlockVersionAsync(
      const BranchAncestry& ancestry, Version published,
      uint64_t published_size, uint64_t psize, const Extent& block,
      std::shared_ptr<SharedNodeMemo> memo);

  void InvalidateCache();
  MetaCacheStats GetCacheStats() const;

 private:
  void CacheInsertLocked(const NodeKey& key, MetaNode node);
  bool CacheLookup(const NodeKey& key, MetaNode* node);

  dht::DhtClient* dht_;
  const MetaClientOptions options_;

  mutable std::mutex cache_mu_;
  struct CacheEntry {
    MetaNode node;
    std::list<const NodeKey*>::iterator lru;
  };
  // LRU order, most recent at front. Entries point at their map keys, so
  // each NodeKey is stored once.
  std::list<const NodeKey*> lru_;
  std::unordered_map<NodeKey, CacheEntry> cache_;
  MetaCacheStats cache_stats_;
};

}  // namespace blobseer::meta

#endif  // BLOBSEER_META_META_CLIENT_H_
