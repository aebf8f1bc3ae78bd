// Embedded BlobSeer cluster: starts a version manager, a provider manager,
// N data providers and M metadata (DHT) providers on one transport, wiring
// the deployment the paper describes (section 3.1) into one process for
// tests, examples and benchmarks. With transport = "tcp" the same topology
// runs over real sockets on loopback.
#ifndef BLOBSEER_CORE_CLUSTER_H_
#define BLOBSEER_CORE_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "client/blob_client.h"
#include "client/blob_handle.h"
#include "common/executor.h"
#include "common/result.h"
#include "dht/service.h"
#include "pagelog/log_page_store.h"
#include "pmanager/client.h"
#include "pmanager/service.h"
#include "provider/service.h"
#include "rpc/inproc.h"
#include "rpc/tcp.h"
#include "vmanager/service.h"

namespace blobseer::core {

/// The page store a provider runs, by spec: "memory", "null", or
/// "log:<dir>" (a log-structured store in <dir>, configured by `log`).
/// nullptr for any other spec.
std::unique_ptr<provider::PageStore> MakePageStore(
    const std::string& spec, const pagelog::LogPageStoreOptions& log = {});

struct ClusterOptions {
  size_t num_providers = 4;
  size_t num_meta = 4;
  /// "inproc" or "tcp" (loopback, ephemeral ports).
  std::string transport = "inproc";
  /// "memory", "null", or "log:<directory>" (durable log-structured store;
  /// each provider gets a provider-N subdirectory). Start rejects others.
  std::string page_store = "memory";
  /// Allocation strategy name (see pmanager/strategy.h).
  std::string allocation = "round_robin";
  /// Page replica count applied to clients built via NewClient (clients may
  /// still override upward through their own options).
  uint32_t replication = 1;
  /// Write quorum applied to clients built via NewClient (0 = all
  /// replicas; see ClientOptions::write_quorum).
  uint32_t write_quorum = 0;
  /// Heartbeat-driven liveness (all three 0 = disabled, the default).
  /// Every provider sends a pmanager Heartbeat each `heartbeat_interval_us`
  /// (real-clock pacing on a cluster-owned executor); the provider manager
  /// marks providers suspect/dead after `suspect_after_us`/`dead_after_us`
  /// without one and excludes them from allocation (docs/liveness.md).
  uint64_t heartbeat_interval_us = 0;
  uint64_t suspect_after_us = 0;
  uint64_t dead_after_us = 0;
  /// Background re-replication: when `rebuild_interval_us` > 0 the provider
  /// manager runs a rebuilder pass every interval that copies pages off
  /// dead/draining providers onto live ones and evens page counts after a
  /// join. Requires heartbeats for dead detection. See
  /// docs/page_locations.md.
  uint64_t rebuild_interval_us = 0;
  size_t rebuild_max_moves = 64;
  /// Version-lifecycle GC (docs/lifecycle.md): when `gc_interval_us` > 0
  /// the provider manager hosts a GcSweeper that evaluates retention
  /// policies and mark-and-sweeps discarded versions every interval. With
  /// 0, tests and benches can still host one via pmanager().StartGcSweeper
  /// (loop disabled) and drive RunOnePass deterministically.
  uint64_t gc_interval_us = 0;
  size_t gc_max_sweep = 256;
  /// Dead-payload ratio that auto-compacts "log:" page stores after GC
  /// deletes (LogPageStoreOptions::compact_dead_ratio; 0 = manual).
  double log_compact_dead_ratio = 0;
  /// Segment seal threshold for "log:" page stores (0 = backend default).
  /// Benches shrink it so GC deletes land in sealed segments and the
  /// auto-compaction path above actually runs at test scale.
  uint64_t log_segment_target_bytes = 0;
};

class EmbeddedCluster {
 public:
  static Result<std::unique_ptr<EmbeddedCluster>> Start(
      const ClusterOptions& options);
  ~EmbeddedCluster();

  EmbeddedCluster(const EmbeddedCluster&) = delete;
  EmbeddedCluster& operator=(const EmbeddedCluster&) = delete;

  rpc::Transport* transport() { return transport_; }
  const std::string& vmanager_address() const { return vm_address_; }
  const std::string& pmanager_address() const { return pm_address_; }
  const std::vector<std::string>& dht_addresses() const {
    return dht_addresses_;
  }
  const std::vector<std::string>& provider_addresses() const {
    return provider_addresses_;
  }

  /// New client bound to this cluster.
  Result<std::unique_ptr<client::BlobClient>> NewClient(
      client::ClientOptions options = {});

  /// Direct service access for tests/inspection.
  vmanager::VersionManagerService& vmanager() { return *vm_service_; }
  pmanager::ProviderManagerService& pmanager() { return *pm_service_; }
  dht::DhtService& dht(size_t i) { return *dht_services_[i]; }
  provider::ProviderService& provider(size_t i) { return *provider_services_[i]; }
  size_t num_providers() const { return provider_services_.size(); }
  size_t num_meta() const { return dht_services_.size(); }

  /// Page store stats summed across providers (space-overhead benches).
  provider::PageStoreStats TotalProviderUsage() const;
  /// Metadata store stats summed across DHT nodes.
  dht::StoreStats TotalMetadataUsage() const;

  /// Kills one data provider endpoint (failure-injection tests); also
  /// silences its heartbeat sender, like a process death would.
  Status StopProvider(size_t index);

  /// Restarts a stopped provider on its original address: serves the
  /// endpoint again, re-registers with the provider manager (same id, same
  /// address) and re-arms the heartbeat sender when heartbeats are on.
  Status RestartProvider(size_t index);

  /// Adds a fresh provider to the running cluster (join-under-churn tests);
  /// returns its index.
  Result<size_t> AddProvider();

  /// Marks provider `index` draining (no new allocations; the rebuilder
  /// moves its pages off). Poll until `drained` before StopProvider.
  Result<pmanager::DecommissionResponse> Decommission(size_t index);

  ProviderId provider_id(size_t index) const { return provider_ids_[index]; }

 private:
  EmbeddedCluster() = default;

  /// Registers provider `index`'s address with the provider manager.
  Result<ProviderId> RegisterProvider(size_t index);
  Status StartProviderHeartbeat(size_t index);

  ClusterOptions options_;
  std::unique_ptr<rpc::InProcNetwork> inproc_;
  std::unique_ptr<rpc::TcpTransport> tcp_;
  rpc::Transport* transport_ = nullptr;
  // Declared before the services: heartbeat loops run on this executor and
  // are stopped by the service destructors, so it must outlive them.
  std::unique_ptr<ThreadPoolExecutor> hb_executor_;
  // AwaitPublished timeout watchdogs; same ordering constraint.
  std::unique_ptr<ThreadPoolExecutor> vm_executor_;
  std::unique_ptr<pmanager::ProviderManagerClient> pm_client_;

  std::shared_ptr<vmanager::VersionManagerService> vm_service_;
  std::shared_ptr<pmanager::ProviderManagerService> pm_service_;
  std::vector<std::shared_ptr<dht::DhtService>> dht_services_;
  std::vector<std::shared_ptr<provider::ProviderService>> provider_services_;

  std::string vm_address_;
  std::string pm_address_;
  std::vector<std::string> dht_addresses_;
  std::vector<std::string> provider_addresses_;
  std::vector<ProviderId> provider_ids_;
};

}  // namespace blobseer::core

#endif  // BLOBSEER_CORE_CLUSTER_H_
