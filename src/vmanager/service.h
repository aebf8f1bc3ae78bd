// RPC adapter for the version manager core.
//
// AwaitPublished is served on the async path: instead of parking a server
// thread in a condvar wait, the handler registers a publication subscription
// in the core and completes the RPC from the publisher (server-push). An
// optional timer executor runs the per-subscription timeout watchdog; without
// one, finite-timeout awaits fall back to the blocking wait.
#ifndef BLOBSEER_VMANAGER_SERVICE_H_
#define BLOBSEER_VMANAGER_SERVICE_H_

#include <memory>

#include "common/executor.h"
#include "rpc/transport.h"
#include "vmanager/core.h"

namespace blobseer::vmanager {

class VersionManagerService : public rpc::ServiceHandler {
 public:
  /// `clock` feeds assignment timestamps and watchdog sleeps (nullptr =
  /// real clock; sim harnesses pass their virtual clock). `timer_executor`
  /// hosts timeout watchdogs for parked awaits; it must outlive the
  /// service, though watchdogs themselves may outlive it by holding the
  /// core alive. nullptr disables the push path for finite timeouts.
  explicit VersionManagerService(Clock* clock = nullptr,
                                 Executor* timer_executor = nullptr)
      : core_(std::make_shared<VersionManagerCore>(clock)),
        clock_(clock ? clock : RealClock::Default()),
        timer_executor_(timer_executor) {}

  Status Handle(rpc::Method method, Slice payload,
                std::string* response) override;

  /// Parks AwaitPublished as a core subscription; everything else routes to
  /// the synchronous Handle.
  void HandleAsync(rpc::Method method, Slice payload,
                   rpc::HandlerDone done) override;

  /// False for the hot in-memory methods, and for AwaitPublished when a
  /// timer executor lets every await park instead of waiting. Table scans
  /// (ListBlobs, ListVersions), Stats and the rest stay on the pool.
  bool Blocks(rpc::Method method) const override;

  VersionManagerCore& core() { return *core_; }

 private:
  // shared_ptr: timeout watchdogs capture the core and may legitimately
  // outlive the service (the core destructor fails their waiters, turning
  // the watchdog into a no-op).
  std::shared_ptr<VersionManagerCore> core_;
  Clock* clock_;
  Executor* timer_executor_;
};

}  // namespace blobseer::vmanager

#endif  // BLOBSEER_VMANAGER_SERVICE_H_
