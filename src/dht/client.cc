#include "dht/client.h"

#include <cstdint>

#include "common/logging.h"
#include "common/stats.h"
#include "rpc/wire.h"

namespace blobseer::dht {

// A node's multi-put batch is split past this many encoded entry bytes, to
// stay well inside the transport's frame limit.
constexpr size_t kMaxBatchBytes = rpc::kMaxFrame / 2;

DhtClient::DhtClient(rpc::Transport* transport, std::vector<std::string> nodes,
                     DhtClientOptions options)
    : nodes_(std::move(nodes)),
      options_(options),
      placement_(nodes_.size()),
      pool_(transport, options.channels_per_endpoint) {
  BS_CHECK(!nodes_.empty()) << "DhtClient requires at least one node";
}

Future<CasResponse> DhtClient::CasAsync(Slice key, Slice expected,
                                        Slice value, bool expect_absent) {
  std::vector<size_t> replicas =
      placement_.ReplicaNodes(key, options_.replication);
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

std::vector<PutBatch> GroupByNode(std::vector<PutRequest> entries,
                                  const StaticPlacement& placement,
                                  size_t replication, size_t max_bytes) {
  std::vector<PutBatch> batches;
  std::vector<size_t> bytes;  // encoded entry bytes per batch
  std::vector<size_t> open(placement.num_nodes(), SIZE_MAX);  // node -> batch
  for (size_t i = 0; i < entries.size(); i++) {
    std::vector<size_t> replicas =
        placement.ReplicaNodes(Slice(entries[i].key), replication);
    const size_t size = 8 + entries[i].key.size() + entries[i].value.size();
    for (size_t j = 0; j < replicas.size(); j++) {
      size_t& b = open[replicas[j]];
      if (b == SIZE_MAX || bytes[b] + size > max_bytes) {
        b = batches.size();
        batches.push_back(PutBatch{replicas[j], {}, {}});
        bytes.push_back(0);
      }
      bytes[b] += size;
      batches[b].keys.push_back(i);
      // The last replica takes the entry itself; the others copy it.
      if (j + 1 == replicas.size()) {
        batches[b].req.entries.push_back(std::move(entries[i]));
      } else {
        batches[b].req.entries.push_back(entries[i]);
      }
    }
  }
  return batches;
}

Future<Unit> DhtClient::MultiPutAsync(std::vector<PutRequest> entries) {
  if (entries.empty()) return MakeReadyFuture(Status::OK());
  const size_t n = entries.size();
  std::vector<PutBatch> batches = GroupByNode(
      std::move(entries), placement_, options_.replication, kMaxBatchBytes);
  std::vector<Future<rpc::Empty>> calls;
  std::vector<std::vector<size_t>> keys;
  calls.reserve(batches.size());
  keys.reserve(batches.size());
  for (PutBatch& b : batches) {
    calls.push_back(pool_.CallWithReconnect<MultiPutRequest, rpc::Empty>(
        nodes_[b.node], rpc::Method::kDhtMultiPut, std::move(b.req)));
    keys.push_back(std::move(b.keys));
  }
  return WhenAll(std::move(calls))
      .Then([n, keys = std::move(keys)](
                Result<std::vector<Result<rpc::Empty>>> all) -> Status {
        if (!all.ok()) return all.status();
        std::vector<bool> accepted(n, false);
        Status first;
        for (size_t b = 0; b < all->size(); b++) {
          if (!(*all)[b].ok()) {
            if (first.ok()) first = (*all)[b].status();
            continue;
          }
          for (size_t i : keys[b]) accepted[i] = true;
        }
        for (bool a : accepted) {
          if (!a) return first.ok() ? Status::Unavailable("dht put") : first;
        }
        return Status::OK();
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
      placement_.ReplicaNodes(key, options_.replication);
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
  for (size_t node : placement_.ReplicaNodes(key, options_.replication)) {
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
