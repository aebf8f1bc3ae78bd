// Transport abstraction: the same services and clients run over in-process
// calls, TCP sockets, or the simnet virtual network.
#ifndef BLOBSEER_RPC_TRANSPORT_H_
#define BLOBSEER_RPC_TRANSPORT_H_

#include <functional>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "rpc/wire.h"

namespace blobseer::rpc {

/// Completion callback for one handled request: application status plus the
/// encoded response payload (empty on error). Invoked exactly once — inline
/// or later from any thread.
using HandlerDone = std::function<void(Status, std::string)>;

/// Server-side request handler. Implementations must be thread-safe: the
/// TCP transport invokes handlers concurrently from its dispatch workers and
/// from its reactor threads (see Blocks).
class ServiceHandler {
 public:
  virtual ~ServiceHandler() = default;

  /// False when `method` never waits: its HandleAsync waits on no future,
  /// issues no RPC and takes only locks that others hold briefly. The
  /// TCP transport runs such requests inline on the reactor thread that
  /// parsed them and keeps its dispatch pool for the methods that may wait,
  /// so a handler that returns false wrongly stalls every connection of its
  /// endpoint. Other transports ignore it.
  virtual bool Blocks(Method) const { return true; }

  /// Handles one request; on success fills `*response` with the encoded
  /// response payload. A non-OK status is propagated to the caller verbatim.
  virtual Status Handle(Method method, Slice payload,
                        std::string* response) = 0;

  /// Async completion path: the handler may return before the request is
  /// answered and invoke `done` later from another thread (server-push —
  /// e.g. a parked AwaitPublished subscription completed at publish time).
  /// `payload` is only borrowed for the duration of this call: a handler
  /// that parks the request must copy what it needs first. Every transport
  /// drives requests through this entry point; the default wraps the
  /// synchronous Handle and completes inline.
  virtual void HandleAsync(Method method, Slice payload, HandlerDone done) {
    std::string response;
    Status st = Handle(method, payload, &response);
    done(std::move(st), std::move(response));
  }
};

/// Completion callback for CallAsync: transport-or-application status plus
/// the decoded response payload (empty on error).
using CallCallback = HandlerDone;

/// Client-side connection to one service endpoint. Call blocks the caller;
/// CallAsync never parks a caller thread on transports with a native
/// implementation (inproc dispatches the handler inline, tcp pipelines
/// correlation-id-tagged frames and completes from a per-connection reader
/// thread — responses may complete out of request order — simnet completes
/// from a spawned sim task). Channels pipeline, so one channel already
/// overlaps requests; a ChannelPool adds client-side send parallelism.
class Channel {
 public:
  virtual ~Channel() = default;
  virtual Status Call(Method method, Slice request, std::string* response) = 0;

  /// Issues the request and returns without waiting for the response;
  /// `done` is invoked exactly once with the outcome. `request` is only
  /// borrowed for the duration of this call — implementations that defer
  /// transmission copy it. `done` may run on an internal transport thread:
  /// keep it cheap and never block it on another RPC's completion.
  ///
  /// The base implementation is a blocking fallback (performs Call inline,
  /// then invokes `done` on the calling thread) so every transport is
  /// async-capable; real transports override it.
  virtual void CallAsync(Method method, Slice request, CallCallback done) {
    std::string response;
    Status st = Call(method, request, &response);
    done(std::move(st), std::move(response));
  }
};

/// Factory for channels and servers on one kind of network.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Starts serving `handler` at `address`; returns the concrete bound
  /// address (useful with ephemeral TCP ports).
  virtual Result<std::string> Serve(const std::string& address,
                                    std::shared_ptr<ServiceHandler> handler) = 0;

  /// Stops the server at `address`. In-flight requests drain; subsequent
  /// calls observe Unavailable.
  virtual Status StopServing(const std::string& address) = 0;

  /// Opens a channel to `address`.
  virtual Result<std::shared_ptr<Channel>> Connect(
      const std::string& address) = 0;

  /// True when a channel binds to the endpoint instance at Connect time, so
  /// a channel opened before a server restart keeps failing Unavailable
  /// after it (TCP sockets, inproc registrations). Clients then reconnect
  /// (ChannelPool::Invalidate + Get) on Unavailable. The simulated network
  /// resolves the endpoint per call and overrides this to false — its
  /// failure semantics must not gain hidden retries.
  virtual bool binds_at_connect() const { return true; }
};

}  // namespace blobseer::rpc

#endif  // BLOBSEER_RPC_TRANSPORT_H_
