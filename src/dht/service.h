// DHT node service: the "metadata provider" role of the paper's
// architecture, exposed over any rpc::Transport.
#ifndef BLOBSEER_DHT_SERVICE_H_
#define BLOBSEER_DHT_SERVICE_H_

#include <memory>

#include "dht/store.h"
#include "rpc/transport.h"

namespace blobseer::dht {

class DhtService : public rpc::ServiceHandler {
 public:
  explicit DhtService(size_t shards = 16);

  Status Handle(rpc::Method method, Slice payload,
                std::string* response) override;
  /// False for the key-value methods: they only touch the in-memory store.
  bool Blocks(rpc::Method method) const override;

  KvStore& store() { return store_; }
  const KvStore& store() const { return store_; }

 private:
  KvStore store_;
};

}  // namespace blobseer::dht

#endif  // BLOBSEER_DHT_SERVICE_H_
