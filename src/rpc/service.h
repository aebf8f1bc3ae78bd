// Helpers for composing multiple services behind one endpoint (the paper
// co-deploys a data provider and a metadata provider per node).
#ifndef BLOBSEER_RPC_SERVICE_H_
#define BLOBSEER_RPC_SERVICE_H_

#include <map>
#include <memory>
#include <vector>

#include "rpc/transport.h"

namespace blobseer::rpc {

/// Routes each method-id block to the service registered for it, so one
/// endpoint can host e.g. both a DHT node and a data provider.
class CompositeHandler : public ServiceHandler {
 public:
  /// Registers `handler` for the method block [base, base+100).
  void Register(uint32_t method_block_base,
                std::shared_ptr<ServiceHandler> handler);

  Status Handle(Method method, Slice payload, std::string* response) override;
  void HandleAsync(Method method, Slice payload, HandlerDone done) override;
  /// The routed handler's answer; true for a method no service owns.
  bool Blocks(Method method) const override;

 private:
  /// nullptr when no service owns the method's block.
  ServiceHandler* RouteFor(Method method) const;

  std::map<uint32_t, std::shared_ptr<ServiceHandler>> blocks_;
};

}  // namespace blobseer::rpc

#endif  // BLOBSEER_RPC_SERVICE_H_
