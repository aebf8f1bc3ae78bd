// Client view of the distributed metadata store: placement + replication
// over a set of DHT node endpoints.
#ifndef BLOBSEER_DHT_CLIENT_H_
#define BLOBSEER_DHT_CLIENT_H_

#include <string>
#include <vector>

#include "common/future.h"
#include "dht/messages.h"
#include "dht/placement.h"
#include "dht/store.h"
#include "rpc/channel_pool.h"
#include "rpc/transport.h"

namespace blobseer::dht {

struct DhtClientOptions {
  /// How many replicas each key is written to (read falls back in order).
  size_t replication = 1;
  /// Channels opened per endpoint for parallel requests.
  size_t channels_per_endpoint = 4;
};

/// One kDhtMultiPut: the node it goes to, its entries, and the positions
/// (in the grouped list) of the keys it carries.
struct PutBatch {
  size_t node = 0;
  MultiPutRequest req;
  std::vector<size_t> keys;
};

/// Groups `entries` by the `replication` placement replicas of each key:
/// one batch per node, plus a further one each time a node's encoded
/// entries would pass `max_bytes`.
std::vector<PutBatch> GroupByNode(std::vector<PutRequest> entries,
                                  const StaticPlacement& placement,
                                  size_t replication, size_t max_bytes);

class DhtClient {
 public:
  /// `nodes` lists the DHT endpoints; placement is by index, so all clients
  /// must use the same ordered list (the provider manager distributes it).
  DhtClient(rpc::Transport* transport, std::vector<std::string> nodes,
            DhtClientOptions options = {});

  /// Puts every entry with one kDhtMultiPut per replica node (more only
  /// when a batch nears the transport's frame limit); replicas are written in
  /// parallel. Resolves OK once every key was accepted by at least one of
  /// its replicas; otherwise fails with the first batch error. An empty
  /// batch resolves OK at once.
  Future<Unit> MultiPutAsync(std::vector<PutRequest> entries);
  /// GetAsync falls back across replicas in placement order; DeleteAsync
  /// fails with the first replica error.
  Future<std::string> GetAsync(Slice key);
  Future<Unit> DeleteAsync(Slice key);

  /// Single-key compare-and-swap, linearized on the key's *first* placement
  /// replica (every client derives the same one from the shared node list);
  /// an applied value is then propagated to the remaining replicas with
  /// plain puts before the future resolves. `applied == false` means the
  /// expectation did not hold — `current` then carries the conflicting
  /// stored bytes (empty for a missing key unless `expect_absent`). Pass
  /// `expect_absent` to create-if-absent (the `expected` bytes are ignored).
  Future<CasResponse> CasAsync(Slice key, Slice expected, Slice value,
                               bool expect_absent);

  /// Aggregate stats across all nodes.
  Future<StoreStats> TotalStatsAsync();

  size_t num_nodes() const { return nodes_.size(); }
  const DhtClientOptions& options() const { return options_; }

 private:
  std::vector<std::string> nodes_;
  DhtClientOptions options_;
  StaticPlacement placement_;
  rpc::ChannelPool pool_;
};

}  // namespace blobseer::dht

#endif  // BLOBSEER_DHT_CLIENT_H_
