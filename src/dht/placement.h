// Key-to-node placement: the paper prototype's "simple static distribution
// scheme".
#ifndef BLOBSEER_DHT_PLACEMENT_H_
#define BLOBSEER_DHT_PLACEMENT_H_

#include <cstddef>
#include <vector>

#include "common/slice.h"

namespace blobseer::dht {

/// Maps keys to node indices in [0, num_nodes) by hash(key) mod n.
class StaticPlacement {
 public:
  explicit StaticPlacement(size_t num_nodes);

  /// Primary node for a key.
  size_t NodeFor(Slice key) const;

  /// `replicas` distinct nodes for a key, primary first: the primary and
  /// its successors mod n. If fewer nodes than replicas exist, returns all
  /// nodes.
  std::vector<size_t> ReplicaNodes(Slice key, size_t replicas) const;

  size_t num_nodes() const { return num_nodes_; }

 private:
  size_t num_nodes_;
};

}  // namespace blobseer::dht

#endif  // BLOBSEER_DHT_PLACEMENT_H_
