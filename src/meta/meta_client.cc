#include "meta/meta_client.h"

#include <array>
#include <memory>

#include "common/logging.h"

namespace blobseer::meta {

namespace {

// The children of inner node `node` at `block`, with the labels it holds.
std::array<std::pair<Extent, Version>, 2> Children(const Extent& block,
                                                   const MetaNode& node) {
  return {{{LeftChildBlock(block), node.left_version},
           {RightChildBlock(block), node.right_version}}};
}

}  // namespace

MetaClient::MetaClient(dht::DhtClient* dht, MetaClientOptions options)
    : dht_(dht), options_(options) {}

void MetaClient::CacheInsertLocked(const NodeKey& key, MetaNode node) {
  auto [it, inserted] = cache_.try_emplace(key);
  it->second.node = std::move(node);
  if (!inserted) {
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return;
  }
  lru_.push_front(&it->first);
  it->second.lru = lru_.begin();
  cache_stats_.puts++;
  while (cache_.size() > options_.cache_capacity) {
    auto victim = cache_.find(*lru_.back());
    lru_.pop_back();
    cache_.erase(victim);
  }
}

bool MetaClient::CacheLookup(const NodeKey& key, MetaNode* node) {
  if (!options_.cache_enabled) return false;
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    cache_stats_.misses++;
    return false;
  }
  cache_stats_.hits++;
  lru_.splice(lru_.begin(), lru_, it->second.lru);
  *node = it->second.node;
  return true;
}

dht::PutRequest MetaClient::NodePut(const NodeKey& key, const MetaNode& node) {
  return dht::PutRequest{key.ToDhtKey(), EncodePayload(node)};
}

void MetaClient::CacheNodes(std::vector<std::pair<NodeKey, MetaNode>> nodes) {
  if (!options_.cache_enabled) return;
  std::lock_guard<std::mutex> lock(cache_mu_);
  for (auto& [key, node] : nodes) CacheInsertLocked(key, std::move(node));
}

Future<MetaNode> MetaClient::GetNodeAsync(const NodeKey& key) {
  MetaNode cached;
  if (CacheLookup(key, &cached))
    return MakeReadyFuture<MetaNode>(std::move(cached));
  return dht_->GetAsync(Slice(key.ToDhtKey()))
      .Then([this, key](Result<std::string> raw) -> Result<MetaNode> {
        if (!raw.ok())
          return raw.status().WithContext("metadata node " + key.ToString());
        MetaNode node;
        BS_RETURN_NOT_OK(DecodePayload(Slice(*raw), &node));
        if (options_.cache_enabled) {
          std::lock_guard<std::mutex> lock(cache_mu_);
          CacheInsertLocked(key, node);
        }
        return node;
      });
}

Future<Unit> MetaClient::WalkLevelsAsync(const BranchAncestry& ancestry,
                                         uint64_t psize, WalkNode root,
                                         VisitFn visit) {
  // State is shared across the waves; each wave's continuation runs only
  // after the previous one finished.
  struct WalkOp {
    MetaClient* mc;
    BranchAncestry ancestry;
    uint64_t psize;
    VisitFn visit;
    std::vector<WalkNode> level;
    Promise<Unit> promise;

    void Step(const std::shared_ptr<WalkOp>& self) {
      if (level.empty()) {
        promise.Set(Unit{});
        return;
      }
      std::vector<Future<MetaNode>> fetches;
      fetches.reserve(level.size());
      for (const WalkNode& n : level) {
        fetches.push_back(mc->GetNodeAsync(
            NodeKey{ancestry.Resolve(n.version), n.version, n.block}));
      }
      WhenAll(std::move(fetches))
          .OnReady(nullptr, [self](Result<std::vector<Result<MetaNode>>> all) {
            Status st = all.ok() ? FirstError(*all) : all.status();
            std::vector<WalkNode> next;
            for (size_t i = 0; st.ok() && i < self->level.size(); i++) {
              const WalkNode& at = self->level[i];
              const MetaNode& node = *(*all)[i];
              if (node.is_leaf() != IsLeafBlock(at.block, self->psize)) {
                st = Status::Corruption(
                    (node.is_leaf() ? "leaf node at inner block "
                                    : "inner node at leaf block ") +
                    at.block.ToString());
              } else {
                st = self->visit(at, node, &next);
              }
            }
            if (!st.ok()) {
              self->promise.Set(std::move(st));
              return;
            }
            self->level = std::move(next);
            self->Step(self);
          });
    }
  };
  auto op = std::make_shared<WalkOp>();
  op->mc = this;
  op->ancestry = ancestry;
  op->psize = psize;
  op->visit = std::move(visit);
  op->level.push_back(root);
  auto f = op->promise.GetFuture();
  op->Step(op);
  return f;
}

Future<std::vector<LeafRef>> MetaClient::ReadMetaAsync(
    const BranchAncestry& ancestry, Version version, uint64_t blob_size,
    uint64_t psize, const Extent& range) {
  using Out = std::vector<LeafRef>;
  if (range.size == 0) return MakeReadyFuture<Out>(Out{});
  if (version == 0 || blob_size == 0)
    return MakeReadyFuture<Out>(Status::OutOfRange("read from empty snapshot"));
  if (range.end() > blob_size)
    return MakeReadyFuture<Out>(
        Status::OutOfRange("read beyond snapshot size"));

  auto leaves = std::make_shared<Out>();
  WalkNode root{Extent{0, RootSizeBytes(blob_size, psize)}, version};
  return WalkLevelsAsync(
             ancestry, psize, root,
             [leaves, range](const WalkNode& at, const MetaNode& node,
                             std::vector<WalkNode>* next) -> Status {
               if (node.is_leaf()) {
                 leaves->push_back(LeafRef{at.block, at.version, node});
                 return Status::OK();
               }
               for (const auto& [child, label] : Children(at.block, node)) {
                 if (!child.Intersects(range)) continue;
                 if (label == kNoVersion)
                   return Status::Corruption("hole in read range at " +
                                             child.ToString());
                 next->push_back(WalkNode{child, label});
               }
               return Status::OK();
             })
      .Then([leaves](Result<Unit> r) -> Result<Out> {
        if (!r.ok()) return r.status();
        return std::move(*leaves);
      });
}

Future<std::vector<Version>> MetaClient::ResolveBordersAsync(
    const BranchAncestry& ancestry, Version published,
    uint64_t published_size, uint64_t psize, std::vector<Extent> targets) {
  using Out = std::vector<Version>;
  auto labels = std::make_shared<Out>(targets.size(), kNoVersion);
  if (published == 0 || published_size == 0)
    return MakeReadyFuture<Out>(std::move(*labels));
  Extent root{0, RootSizeBytes(published_size, psize)};
  bool descend = false;
  for (size_t i = 0; i < targets.size(); i++) {
    const Extent& block = targets[i];
    if (block == root) {
      (*labels)[i] = published;
    } else if (block.offset >= root.size) {
      continue;  // beyond the published span: a hole
    } else if (block.size >= root.size) {
      return MakeReadyFuture<Out>(Status::Internal(
          "border block contains published root; must be supplied by the "
          "version manager: " +
          block.ToString()));
    } else {
      descend = true;
    }
  }
  if (!descend) return MakeReadyFuture<Out>(std::move(*labels));

  // Targets strictly inside the root take their labels from their parents.
  // A child is fetched only if it strictly contains a target; a hole there
  // leaves the targets under it at kNoVersion.
  auto blocks = std::make_shared<const std::vector<Extent>>(std::move(targets));
  return WalkLevelsAsync(
             ancestry, psize, WalkNode{root, published},
             [labels, blocks](const WalkNode& at, const MetaNode& node,
                              std::vector<WalkNode>* next) -> Status {
               for (const auto& [child, label] : Children(at.block, node)) {
                 bool contains_target = false;
                 for (size_t i = 0; i < blocks->size(); i++) {
                   const Extent& block = (*blocks)[i];
                   if (block == child)
                     (*labels)[i] = label;
                   else if (child.Contains(block))
                     contains_target = true;
                 }
                 if (contains_target && label != kNoVersion)
                   next->push_back(WalkNode{child, label});
               }
               return Status::OK();
             })
      .Then([labels](Result<Unit> r) -> Result<Out> {
        if (!r.ok()) return r.status();
        return std::move(*labels);
      });
}

void MetaClient::InvalidateCache() {
  std::lock_guard<std::mutex> lock(cache_mu_);
  cache_.clear();
  lru_.clear();
}

MetaCacheStats MetaClient::GetCacheStats() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_stats_;
}

}  // namespace blobseer::meta
