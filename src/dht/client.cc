#include "dht/client.h"

#include "common/logging.h"
#include "common/stats.h"

namespace blobseer::dht {

DhtClient::DhtClient(rpc::Transport* transport, std::vector<std::string> nodes,
                     DhtClientOptions options)
    : nodes_(std::move(nodes)),
      options_(options),
      placement_(options.placement == "ring"
                     ? MakeRingPlacement(nodes_.size())
                     : MakeStaticPlacement(nodes_.size())),
      pool_(transport, options.channels_per_endpoint) {
  BS_CHECK(!nodes_.empty()) << "DhtClient requires at least one node";
}

Future<CasResponse> DhtClient::CasAsync(Slice key, Slice expected,
                                        Slice value, bool expect_absent) {
  std::vector<size_t> replicas =
      placement_->ReplicaNodes(key, options_.replication);
  if (replicas.empty())
    return MakeReadyFuture<CasResponse>(Status::Unavailable("dht cas"));
  CasRequest req{key.ToString(), expected.ToString(), value.ToString(),
                 expect_absent};
  Future<CasResponse> f = pool_.CallWithReconnect<CasRequest, CasResponse>(
      nodes_[replicas[0]], rpc::Method::kDhtCas, req);
  if (replicas.size() == 1) return f;
  // Propagate an applied CAS to the tail replicas before resolving, so a
  // caller observing success never races its own propagation.
  return f.Then([this, key = req.key, value = req.value,
                 replicas](Result<CasResponse> r) -> Future<CasResponse> {
    if (!r.ok() || !r->applied)
      return MakeReadyFuture<CasResponse>(std::move(r));
    auto rsp = std::make_shared<CasResponse>(std::move(r).ValueUnsafe());
    PutRequest put{key, value};
    std::vector<Future<rpc::Empty>> tail;
    for (size_t i = 1; i < replicas.size(); i++) {
      tail.push_back(pool_.CallWithReconnect<PutRequest, rpc::Empty>(
          nodes_[replicas[i]], rpc::Method::kDhtPut, put));
    }
    return WhenAll(std::move(tail))
        .Then([rsp](Result<std::vector<Result<rpc::Empty>>>)
                  -> Result<CasResponse> { return std::move(*rsp); });
  });
}

Future<Unit> DhtClient::PutAsync(Slice key, Slice value) {
  auto req = PutRequest{key.ToString(), value.ToString()};
  std::vector<Future<rpc::Empty>> calls;
  for (size_t node : placement_->ReplicaNodes(key, options_.replication)) {
    calls.push_back(pool_.CallWithReconnect<PutRequest, rpc::Empty>(
        nodes_[node], rpc::Method::kDhtPut, req));
  }
  if (calls.empty()) return MakeReadyFuture(Status::Unavailable("dht put"));
  return WhenAll(std::move(calls))
      .Then([](Result<std::vector<Result<rpc::Empty>>> all) -> Status {
        if (!all.ok()) return all.status();
        Status first;
        for (const auto& r : *all) {
          if (r.ok()) return Status::OK();
          if (first.ok()) first = r.status();
        }
        return first.ok() ? Status::Unavailable("dht put") : first;
      });
}

Future<std::string> DhtClient::GetAsync(Slice key) {
  GetRequest req{key.ToString()};
  auto try_replica = [this](const GetRequest& r,
                            size_t node) -> Future<std::string> {
    return pool_
        .CallWithReconnect<GetRequest, GetResponse>(nodes_[node],
                                                    rpc::Method::kDhtGet, r)
        .Then([](Result<GetResponse> rsp) -> Result<std::string> {
          if (!rsp.ok()) return rsp.status();
          return std::move(rsp->value);
        });
  };
  // Fallback chain in placement order: each later replica is consulted only
  // after the previous attempt resolved with an error.
  std::vector<size_t> replicas =
      placement_->ReplicaNodes(key, options_.replication);
  if (replicas.empty())
    return MakeReadyFuture<std::string>(Status::NotFound("dht key"));
  Future<std::string> f = try_replica(req, replicas[0]);
  for (size_t i = 1; i < replicas.size(); i++) {
    f = f.Then([try_replica, req, node = replicas[i]](
                   Result<std::string> r) -> Future<std::string> {
      if (r.ok()) return MakeReadyFuture<std::string>(std::move(r));
      return try_replica(req, node);
    });
  }
  return f;
}

Future<Unit> DhtClient::DeleteAsync(Slice key) {
  DeleteRequest req{key.ToString()};
  std::vector<Future<rpc::Empty>> calls;
  for (size_t node : placement_->ReplicaNodes(key, options_.replication)) {
    calls.push_back(pool_.CallWithReconnect<DeleteRequest, rpc::Empty>(
        nodes_[node], rpc::Method::kDhtDelete, req));
  }
  if (calls.empty()) return MakeReadyFuture(Status::OK());
  return WhenAll(std::move(calls))
      .Then([](Result<std::vector<Result<rpc::Empty>>> all) -> Status {
        if (!all.ok()) return all.status();
        for (const auto& r : *all) {
          if (!r.ok()) return r.status();
        }
        return Status::OK();
      });
}

Future<StoreStats> DhtClient::TotalStatsAsync() {
  std::vector<Future<StoreStats>> calls;
  for (const auto& addr : nodes_) {
    calls.push_back(pool_.CallWithReconnect<rpc::Empty, StoreStats>(
        addr, rpc::Method::kDhtStats, rpc::Empty{}));
  }
  return WhenAll(std::move(calls))
      .Then([](Result<std::vector<Result<StoreStats>>> all)
                -> Result<StoreStats> {
        if (!all.ok()) return all.status();
        StoreStats total;
        for (const auto& r : *all) {
          if (!r.ok()) return r.status();
          stats::Add(&total, *r);
        }
        return total;
      });
}

}  // namespace blobseer::dht
