#include "dht/service.h"

#include "dht/messages.h"
#include "rpc/call.h"

namespace blobseer::dht {

DhtService::DhtService(size_t shards) : store_(shards) {}

Status DhtService::Handle(rpc::Method method, Slice payload,
                          std::string* response) {
  using rpc::DispatchTyped;
  switch (method) {
    case rpc::Method::kDhtPut:
      return DispatchTyped<PutRequest, rpc::Empty>(
          payload, response, [this](const PutRequest& req, rpc::Empty*) {
            return store_.Put(Slice(req.key), Slice(req.value));
          });
    case rpc::Method::kDhtMultiPut:
      return DispatchTyped<MultiPutRequest, rpc::Empty>(
          payload, response, [this](const MultiPutRequest& req, rpc::Empty*) {
            for (const PutRequest& e : req.entries)
              BS_RETURN_NOT_OK(store_.Put(Slice(e.key), Slice(e.value)));
            return Status::OK();
          });
    case rpc::Method::kDhtGet:
      return DispatchTyped<GetRequest, GetResponse>(
          payload, response, [this](const GetRequest& req, GetResponse* rsp) {
            return store_.Get(Slice(req.key), &rsp->value);
          });
    case rpc::Method::kDhtDelete:
      return DispatchTyped<DeleteRequest, rpc::Empty>(
          payload, response, [this](const DeleteRequest& req, rpc::Empty*) {
            return store_.Delete(Slice(req.key));
          });
    case rpc::Method::kDhtCas:
      return DispatchTyped<CasRequest, CasResponse>(
          payload, response, [this](const CasRequest& req, CasResponse* rsp) {
            return store_.Cas(Slice(req.key), Slice(req.expected),
                              Slice(req.value), req.expect_absent,
                              &rsp->applied, &rsp->present, &rsp->current);
          });
    case rpc::Method::kDhtMultiGet:
      return DispatchTyped<MultiGetRequest, MultiGetResponse>(
          payload, response,
          [this](const MultiGetRequest& req, MultiGetResponse* rsp) {
            rsp->found.reserve(req.keys.size());
            for (const auto& k : req.keys) {
              std::string v;
              if (store_.Get(Slice(k), &v).ok()) {
                rsp->found.push_back(1);
                rsp->values.push_back(std::move(v));
              } else {
                rsp->found.push_back(0);
              }
            }
            return Status::OK();
          });
    case rpc::Method::kDhtStats:
      return DispatchTyped<rpc::Empty, StoreStats>(
          payload, response, [this](const rpc::Empty&, StoreStats* rsp) {
            *rsp = store_.GetStats();
            return Status::OK();
          });
    default:
      return Status::NotSupported("dht method");
  }
}

bool DhtService::Blocks(rpc::Method method) const {
  switch (method) {
    case rpc::Method::kDhtPut:
    case rpc::Method::kDhtMultiPut:
    case rpc::Method::kDhtGet:
    case rpc::Method::kDhtDelete:
    case rpc::Method::kDhtCas:
    case rpc::Method::kDhtMultiGet:
      return false;
    default:
      return true;
  }
}

}  // namespace blobseer::dht
