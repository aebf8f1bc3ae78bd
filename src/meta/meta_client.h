// Client-side metadata engine: reads and writes segment-tree nodes in the
// DHT and walks published trees level by level, for READ (paper Algorithm
// 3) and to resolve an update's border labels (paper section 4.2).
#ifndef BLOBSEER_META_META_CLIENT_H_
#define BLOBSEER_META_META_CLIENT_H_

#include <functional>
#include <list>
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
  /// accelerates border walks and repeated reads; benchmarks can disable
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

/// Node and tree operations over one DHT. Both tree walks run on one level
/// walker: each level's nodes are fetched in one parallel wave, because a
/// node's key names a version found only in its parent. Continuations
/// resolve on the DHT transport's completion context; cache hits resolve
/// immediately on the calling thread.
class MetaClient {
 public:
  explicit MetaClient(dht::DhtClient* dht, MetaClientOptions options = {});

  /// The DHT put that stores `node` under `key`. Writers ship these with
  /// their location entries in one multi-put wave (paper Algorithm 4's
  /// final loop).
  static dht::PutRequest NodePut(const NodeKey& key, const MetaNode& node);
  /// Caches nodes the caller has just stored: the writer is the likeliest
  /// next reader during its subsequent border walks. A cached node under
  /// the same key is replaced, as in the DHT: an abort repair rewrites the
  /// failed update's keys with zero-fill leaves.
  void CacheNodes(std::vector<std::pair<NodeKey, MetaNode>> nodes);
  /// Fetches one node, through the cache.
  Future<MetaNode> GetNodeAsync(const NodeKey& key);
  /// Paper Algorithm 3 (READ_META): collects every leaf of snapshot
  /// `version` whose page block intersects `range`, one parallel wave of
  /// node fetches per tree level.
  Future<std::vector<LeafRef>> ReadMetaAsync(const BranchAncestry& ancestry,
                                             Version version,
                                             uint64_t blob_size,
                                             uint64_t psize,
                                             const Extent& range);
  /// Resolves the version label of every block in `targets` within the
  /// published snapshot (`published`, `published_size`), in one walk down
  /// from its root: only nodes that strictly contain a target are fetched,
  /// and each target's label is read from its parent. For an update's
  /// border set that is at most two nodes per level. Labels come back in
  /// `targets` order. A block beyond the published span or under a
  /// never-written hole resolves to kNoVersion. Fails with Internal when a
  /// block strictly contains the published root (such blocks must come
  /// from the version manager's partial border set).
  Future<std::vector<Version>> ResolveBordersAsync(
      const BranchAncestry& ancestry, Version published,
      uint64_t published_size, uint64_t psize, std::vector<Extent> targets);

  void InvalidateCache();
  MetaCacheStats GetCacheStats() const;

 private:
  /// A node a walk fetches: its block and the label its parent gave it.
  struct WalkNode {
    Extent block;
    Version version = kNoVersion;
  };
  /// Sees each fetched node and appends the nodes of the next level to
  /// fetch. Calls within one walk never overlap.
  using VisitFn = std::function<Status(
      const WalkNode& at, const MetaNode& node, std::vector<WalkNode>* next)>;
  /// Fetches `root`, then each level `visit` names in one parallel wave,
  /// until a level is empty. Fails with Corruption where a node's kind
  /// (leaf or inner) disagrees with its block.
  Future<Unit> WalkLevelsAsync(const BranchAncestry& ancestry, uint64_t psize,
                               WalkNode root, VisitFn visit);
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
