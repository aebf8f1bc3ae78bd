// TCP socket transport: length-prefixed, correlation-id-tagged frames served
// by one epoll reactor thread per listening endpoint. The reactor runs a
// request's handler itself when the handler says the method never waits
// (ServiceHandler::Blocks returns false) and hands every other request to a
// shared dispatch pool. Encoded responses are written back in completion
// order, so a held call (e.g. a parked AwaitPublished subscription) blocks
// neither its connection nor a server thread. The price: while an inline
// handler runs, its endpoint serves no other connection.
#ifndef BLOBSEER_RPC_TCP_H_
#define BLOBSEER_RPC_TCP_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/executor.h"
#include "rpc/transport.h"

namespace blobseer::rpc {

class TcpServer;

/// Transport over real sockets. Addresses are "host:port"; serve with port 0
/// to bind an ephemeral port (the returned address carries the real one).
class TcpTransport : public Transport {
 public:
  TcpTransport();
  ~TcpTransport() override;

  Result<std::string> Serve(const std::string& address,
                            std::shared_ptr<ServiceHandler> handler) override;
  Status StopServing(const std::string& address) override;
  Result<std::shared_ptr<Channel>> Connect(const std::string& address) override;

 private:
  /// Workers for the methods that may wait, shared by every server on this
  /// transport.
  static constexpr size_t kDispatchThreads = 16;

  std::mutex mu_;
  // Declared before servers_ so it is destroyed after them: server teardown
  // only joins the reactor; in-flight handler tasks drain here.
  std::unique_ptr<ThreadPoolExecutor> dispatch_;
  std::map<std::string, std::unique_ptr<TcpServer>> servers_;
};

}  // namespace blobseer::rpc

#endif  // BLOBSEER_RPC_TCP_H_
