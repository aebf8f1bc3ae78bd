#include "rpc/service.h"

namespace blobseer::rpc {

void CompositeHandler::Register(uint32_t method_block_base,
                                std::shared_ptr<ServiceHandler> handler) {
  blocks_[method_block_base] = std::move(handler);
}

ServiceHandler* CompositeHandler::RouteFor(Method method) const {
  uint32_t base = (static_cast<uint32_t>(method) / 100) * 100;
  auto it = blocks_.find(base);
  return it == blocks_.end() ? nullptr : it->second.get();
}

Status CompositeHandler::Handle(Method method, Slice payload,
                                std::string* response) {
  ServiceHandler* target = RouteFor(method);
  if (!target)
    return Status::NotSupported(
        "no service for method block " +
        std::to_string((static_cast<uint32_t>(method) / 100) * 100));
  return target->Handle(method, payload, response);
}

void CompositeHandler::HandleAsync(Method method, Slice payload,
                                   HandlerDone done) {
  ServiceHandler* target = RouteFor(method);
  if (!target) {
    done(Status::NotSupported(
             "no service for method block " +
             std::to_string((static_cast<uint32_t>(method) / 100) * 100)),
         std::string());
    return;
  }
  target->HandleAsync(method, payload, std::move(done));
}

bool CompositeHandler::Blocks(Method method) const {
  ServiceHandler* target = RouteFor(method);
  return target == nullptr || target->Blocks(method);
}

}  // namespace blobseer::rpc
