// Typed request/response helpers layered over raw channels.
#ifndef BLOBSEER_RPC_CALL_H_
#define BLOBSEER_RPC_CALL_H_

#include <string>
#include <utility>

#include "common/future.h"
#include "common/serde.h"
#include "rpc/transport.h"

namespace blobseer::rpc {

/// The request or response of a method that carries no payload.
struct Empty {
  BS_FIELDS(Empty)
};

/// Encodes `req` inline, issues CallAsync, decodes the whole response in
/// the completion callback. The returned future resolves on the transport's
/// completion context (see Channel::CallAsync). `channel` must stay alive
/// until the future resolves — channels obtained from a ChannelPool are
/// retained by the pool, which satisfies this.
template <typename Request, typename Response>
Future<Response> CallMethodAsync(Channel* channel, Method method,
                                 const Request& req) {
  Promise<Response> p;
  Future<Response> f = p.GetFuture();
  channel->CallAsync(method, Slice(EncodePayload(req)),
                     [p](Status st, std::string out) mutable {
                       if (!st.ok()) {
                         p.Set(std::move(st));
                         return;
                       }
                       Response rsp;
                       Status ds = DecodePayload(Slice(out), &rsp);
                       if (!ds.ok())
                         p.Set(std::move(ds));
                       else
                         p.Set(std::move(rsp));
                     });
  return f;
}

/// Server-side glue: decodes the payload into Request, invokes
/// `fn(req, &rsp)`, encodes the response.
template <typename Request, typename Response, typename F>
Status DispatchTyped(Slice payload, std::string* response, F&& fn) {
  Request req;
  BS_RETURN_NOT_OK(DecodePayload(payload, &req));
  Response rsp;
  BS_RETURN_NOT_OK(fn(req, &rsp));
  *response = EncodePayload(rsp);
  return Status::OK();
}

}  // namespace blobseer::rpc

#endif  // BLOBSEER_RPC_CALL_H_
