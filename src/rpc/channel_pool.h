// Channel pooling: the client library spreads requests to one endpoint
// across several channels. A single TCP channel already pipelines many
// requests, the server dispatches them concurrently, and responses are
// matched by correlation id (so a slow call does not block the ones behind
// it); the pool's remaining job is client-side send parallelism — spreading
// request serialization and socket writes across connections.
#ifndef BLOBSEER_RPC_CHANNEL_POOL_H_
#define BLOBSEER_RPC_CHANNEL_POOL_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rpc/call.h"
#include "rpc/transport.h"

namespace blobseer::rpc {

class ChannelPool {
 public:
  /// `channels_per_endpoint` bounds how many concurrent channels are opened
  /// to any single address.
  ChannelPool(Transport* transport, size_t channels_per_endpoint);

  /// Returns a channel to `address`, opening one lazily; rotates round-robin
  /// across the pool for that endpoint.
  Result<std::shared_ptr<Channel>> Get(const std::string& address);

  /// Drops all channels for `address` (e.g. after repeated failures).
  void Invalidate(const std::string& address);

  /// True when the transport binds channels at connect time, i.e. when an
  /// Unavailable from a pooled channel may mean "stale channel to a
  /// restarted endpoint" and Invalidate + Get can reach it again.
  bool binding() const { return transport_->binds_at_connect(); }

  /// Typed async call to `address` on a pooled channel, reconnecting once
  /// on Unavailable when the transport binds at connect: a channel pooled
  /// before an endpoint restart keeps failing even once the endpoint serves
  /// again, so the pool entry is dropped and the call retried on a fresh
  /// connection. For idempotent methods only. Simnet resolves endpoints per
  /// call and opts out via binds_at_connect() — its failure model must not
  /// gain hidden retries. The pool must outlive the returned future.
  template <typename Req, typename Rsp>
  Future<Rsp> CallWithReconnect(const std::string& address, Method method,
                                Req req) {
    auto ch = Get(address);
    if (!ch.ok()) return MakeReadyFuture<Rsp>(ch.status());
    // Shared with the retry continuation: serialized twice at most, copied
    // into the closure once.
    auto shared = std::make_shared<Req>(std::move(req));
    return CallMethodAsync<Req, Rsp>(ch->get(), method, *shared)
        .Then([this, address, method, shared](Result<Rsp> r) -> Future<Rsp> {
          if (r.ok() || !r.status().IsUnavailable() || !binding())
            return MakeReadyFuture<Rsp>(std::move(r));
          Invalidate(address);
          auto retry = Get(address);
          if (!retry.ok()) return MakeReadyFuture<Rsp>(std::move(r));
          return CallMethodAsync<Req, Rsp>(retry->get(), method, *shared);
        });
  }

 private:
  struct Entry {
    std::vector<std::shared_ptr<Channel>> channels;
    size_t next = 0;
  };
  Transport* transport_;
  size_t per_endpoint_;
  std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace blobseer::rpc

#endif  // BLOBSEER_RPC_CHANNEL_POOL_H_
