#include "dht/placement.h"

#include "common/hash.h"
#include "common/logging.h"

namespace blobseer::dht {

StaticPlacement::StaticPlacement(size_t num_nodes) : num_nodes_(num_nodes) {
  BS_CHECK(num_nodes > 0) << "placement over zero nodes";
}

size_t StaticPlacement::NodeFor(Slice key) const {
  return static_cast<size_t>(Fnv1a64(key) % num_nodes_);
}

std::vector<size_t> StaticPlacement::ReplicaNodes(Slice key,
                                                  size_t replicas) const {
  if (replicas > num_nodes_) replicas = num_nodes_;
  std::vector<size_t> out;
  out.reserve(replicas);
  size_t primary = NodeFor(key);
  for (size_t i = 0; i < replicas; i++)
    out.push_back((primary + i) % num_nodes_);
  return out;
}

}  // namespace blobseer::dht
