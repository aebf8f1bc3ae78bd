// Provider manager service: provider registration, heartbeat-driven
// liveness, page allocation (paper section 3.1) and — through the location
// table it feeds to the rebuilder — detector-triggered re-replication.
#ifndef BLOBSEER_PMANAGER_SERVICE_H_
#define BLOBSEER_PMANAGER_SERVICE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/executor.h"
#include "lifecycle/gc_sweeper.h"
#include "locator/rebuilder.h"
#include "locator/table.h"
#include "pmanager/messages.h"
#include "pmanager/strategy.h"
#include "rpc/transport.h"

namespace blobseer::pmanager {

/// Failure-detector thresholds. A provider that has not heartbeated for
/// `suspect_after_us` becomes kSuspect (excluded from allocation while at
/// least r alive providers remain); after `dead_after_us` it becomes kDead
/// (never allocated). `suspect_after_us == 0` disables the detector — every
/// registered provider stays kAlive forever, the pre-heartbeat behaviour —
/// so clusters that run no heartbeat senders keep working unchanged.
struct LivenessOptions {
  uint64_t suspect_after_us = 0;
  uint64_t dead_after_us = 0;
};

class ProviderManagerService : public rpc::ServiceHandler {
 public:
  /// `clock` defaults to the real clock; the simulator injects its
  /// virtual-time clock so liveness expiry is deterministic.
  explicit ProviderManagerService(
      std::unique_ptr<AllocationStrategy> strategy = MakeRoundRobinStrategy(),
      Clock* clock = nullptr, LivenessOptions liveness = {});
  ~ProviderManagerService() override;

  Status Handle(rpc::Method method, Slice payload,
                std::string* response) override;
  /// False for registration, heartbeats, allocation, the directory and
  /// location reports: each holds a registry or table lock briefly. Stats
  /// and Decommission scan the location table and stay on the pool.
  bool Blocks(rpc::Method method) const override;

  /// Snapshot of the registry with liveness freshly derived from heartbeat
  /// ages (for tests and tools).
  std::vector<ProviderRecord> Records() const;

  /// Registry statistics with liveness freshly derived, plus the location
  /// table's health and the hosted rebuilder's and GC sweeper's progress.
  PmStats GetStats() const;

  /// Registry snapshot in the rebuilder's vocabulary: `alive` marks
  /// eligible move targets (heartbeating, not draining), `up` marks usable
  /// copy sources (not declared dead).
  std::vector<locator::ProviderView> ProviderViews() const;

  /// Starts the background re-replication loop against this service's
  /// location table. `dht_nodes`/`dht_options` must match what clients use
  /// so the CAS linearization point agrees. Call StopRebuilder() before
  /// tearing down the transport.
  void StartRebuilder(Executor* executor, Clock* clock,
                      rpc::Transport* transport,
                      std::vector<std::string> dht_nodes,
                      dht::DhtClientOptions dht_options,
                      locator::RebuildOptions options);
  void StopRebuilder();

  /// Starts the version-lifecycle GC sweeper (docs/lifecycle.md) against
  /// this service's location table, mirroring the rebuilder's hosting:
  /// same executor/clock pair, same dht placement contract. `vm_address`
  /// is the version manager the sweeper evaluates retention against.
  void StartGcSweeper(Executor* executor, Clock* clock,
                      rpc::Transport* transport, std::string vm_address,
                      std::vector<std::string> dht_nodes,
                      dht::DhtClientOptions dht_options,
                      lifecycle::GcOptions options);
  /// Stops the sweeper loop. Returns true when the sweeper drained (no
  /// pass or delete RPC still in flight — always, given Stop joins the
  /// loop) or was never started; harness teardown asserts on it before
  /// tearing down the transport under the sweeper.
  bool StopGcSweeper();

  locator::PageLocationTable* location_table() { return &table_; }
  locator::Rebuilder* rebuilder() { return rebuilder_.get(); }
  lifecycle::GcSweeper* gc_sweeper() { return gc_sweeper_.get(); }

 private:
  /// Re-derives every record's liveness from its heartbeat age. Idempotent
  /// and monotonic in the clock: a provider that resumes beating flips back
  /// to kAlive on its next heartbeat without re-registration.
  void RefreshLivenessLocked() const;

  mutable std::mutex mu_;
  mutable std::vector<ProviderRecord> records_;
  /// Address -> index into records_ (ids are dense and never removed), so
  /// (re-)registration stays O(1) at 1000-provider bring-up.
  std::unordered_map<std::string, ProviderId> ids_by_address_;
  /// Reusable allocated_pages snapshot for allocation rollback (guarded by
  /// mu_; kept as a member to avoid a per-RPC allocation).
  std::vector<uint64_t> alloc_rollback_;
  std::unique_ptr<AllocationStrategy> strategy_;
  Clock* clock_;
  LivenessOptions liveness_;
  uint64_t allocations_ = 0;

  // Authoritative page-location view (fed by client reports and rebuilder
  // moves); lives here so Decommission and the stats endpoint can answer
  // "which pages still reference provider X" without touching the DHT.
  locator::PageLocationTable table_;
  std::unique_ptr<locator::Rebuilder> rebuilder_;
  std::unique_ptr<lifecycle::GcSweeper> gc_sweeper_;
};

}  // namespace blobseer::pmanager

#endif  // BLOBSEER_PMANAGER_SERVICE_H_
