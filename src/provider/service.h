// Data provider service: stores the pages generated by WRITE/APPEND.
#ifndef BLOBSEER_PROVIDER_SERVICE_H_
#define BLOBSEER_PROVIDER_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>

#include "common/clock.h"
#include "common/executor.h"
#include "common/types.h"
#include "provider/page_store.h"
#include "rpc/transport.h"

namespace blobseer::provider {

/// Everything the heartbeat sender needs to talk to the provider manager.
struct HeartbeatConfig {
  rpc::Transport* transport = nullptr;
  std::string pmanager_address;
  /// This provider's serving address — the re-registration identity when
  /// the provider manager answers NotFound (e.g. it restarted and lost its
  /// registry; re-registering under the same address keeps the id stable).
  std::string self_address;
  uint64_t capacity_pages = 0;
  /// Id from the initial registration.
  ProviderId id = kInvalidProvider;
  /// Beat period; 0 disables the sender.
  uint64_t interval_us = 0;
  /// Delay before the first beat (then `interval_us` applies); 0 means one
  /// full interval. Large clusters stagger this so n providers do not all
  /// beat on the same tick forever.
  uint64_t initial_delay_us = 0;
};

class ProviderService : public rpc::ServiceHandler {
 public:
  /// Takes ownership of the storage engine (memory, null, or log).
  explicit ProviderService(std::unique_ptr<PageStore> store);
  ~ProviderService() override;

  Status Handle(rpc::Method method, Slice payload,
                std::string* response) override;
  /// False only for Read: Write and Delete wait on the store's group-commit
  /// sync. A read takes the store lock briefly, so it waits behind a
  /// segment rotation's sync under that lock.
  bool Blocks(rpc::Method method) const override;

  PageStore& store() { return *store_; }

  /// Starts a background loop that sends one pmanager Heartbeat (carrying
  /// the store's current page/byte counts) every `config.interval_us`.
  /// Paced by `clock->SleepForMicros`, so the same loop runs on real
  /// threads (RealClock + ThreadPoolExecutor — it parks one executor slot)
  /// and on simnet tasks (SimClock + SimExecutor — virtual time). A running
  /// loop is stopped first, so kill/restart harnesses can re-arm it.
  void StartHeartbeat(Executor* executor, Clock* clock,
                      HeartbeatConfig config);

  /// Stops the loop and waits (on an executor-provided event, sim-safe)
  /// until it exits — at most one beat interval. Invoked by the destructor;
  /// safe when no loop was started.
  void StopHeartbeat();

  /// Signals the loop to stop without waiting for it to exit. Bulk
  /// teardown (n providers) requests every stop first, then awaits each —
  /// the waits overlap one beat interval instead of paying one per
  /// provider. Follow with StopHeartbeat() to join.
  void RequestStopHeartbeat();

  /// Heartbeats acknowledged by the provider manager / attempts that failed
  /// (dropped, endpoint down). Tests and metrics.
  uint64_t heartbeats_sent() const;
  uint64_t heartbeat_failures() const;

  /// Starts a background loop that calls PageStore::Compact() every
  /// `interval_us` (the log-structured backend reclaims deleted pages;
  /// a no-op for the other engines). The loop occupies one scheduling slot
  /// of `executor` and paces itself on a real-time condition variable, so
  /// it is for real deployments (the simulator runs no compaction). At
  /// most one loop runs; subsequent calls are ignored.
  void StartPeriodicCompaction(Executor* executor, uint64_t interval_us);

  /// Stops the loop and waits for the in-flight pass to finish. Invoked by
  /// the destructor; safe to call when no loop was started.
  void StopPeriodicCompaction();

  /// Completed Compact() passes of the background loop (tests/metrics).
  uint64_t compaction_passes() const;

 private:
  struct CompactionLoop {
    std::mutex mu;
    std::condition_variable cv;
    bool stop = false;
    bool done = false;
    std::atomic<uint64_t> passes{0};
  };
  struct HeartbeatLoop;  // defined in service.cc (owns a pmanager client)

  std::unique_ptr<PageStore> store_;
  std::shared_ptr<CompactionLoop> loop_;
  std::shared_ptr<HeartbeatLoop> hb_;
};

}  // namespace blobseer::provider

#endif  // BLOBSEER_PROVIDER_SERVICE_H_
