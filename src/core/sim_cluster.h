// BlobSeer deployed on the simulated Grid'5000-style cluster: the topology
// of the paper's evaluation (section 5) — version manager and provider
// manager on dedicated nodes, a data provider and a metadata (DHT) provider
// co-deployed on every other node, clients on dedicated or co-deployed
// nodes — running the real client/service code over simnet.
#ifndef BLOBSEER_CORE_SIM_CLUSTER_H_
#define BLOBSEER_CORE_SIM_CLUSTER_H_

#include <memory>
#include <string>
#include <vector>

#include "client/blob_client.h"
#include "dht/service.h"
#include "pmanager/client.h"
#include "pmanager/service.h"
#include "provider/service.h"
#include "simnet/network.h"
#include "simnet/sim.h"
#include "simnet/transport.h"
#include "vmanager/service.h"

namespace blobseer::core {

struct SimClusterOptions {
  /// Nodes hosting a data provider; a metadata provider is co-deployed on
  /// each (paper section 5 deployment).
  size_t num_provider_nodes = 50;
  /// Extra dedicated client nodes (readers in Figure 2(b) instead run
  /// co-deployed on provider nodes).
  size_t num_client_nodes = 1;
  /// Metadata (DHT) providers are co-deployed on the first
  /// `num_dht_nodes` provider nodes; 0 = one on every provider node (the
  /// paper deployment). 1000-provider campaigns cap this so the metadata
  /// ring stays a realistic size instead of scaling with the data fleet.
  size_t num_dht_nodes = 0;
  simnet::SimNetworkOptions net;
  /// Service cost model (calibrated in EXPERIMENTS.md).
  double provider_cpu_us = 1300.0;
  size_t provider_concurrency = 1;
  double dht_cpu_us = 40.0;
  double manager_cpu_us = 20.0;
  /// "null", "memory" or "log:<directory>" (each provider gets a
  /// provider-N subdirectory), as for ClusterOptions; others are fatal.
  std::string page_store = "null";
  std::string allocation = "round_robin";
  /// Page replica count applied to clients built via NewClient.
  uint32_t replication = 1;
  /// Write quorum applied to clients built via NewClient (0 = all
  /// replicas; see ClientOptions::write_quorum).
  uint32_t write_quorum = 0;
  /// Heartbeat-driven liveness in virtual time (all 0 = disabled). Each
  /// provider node runs a sender sim task beating every
  /// `heartbeat_interval_us`; the provider manager (on the sim clock)
  /// marks providers suspect/dead after `suspect_after_us`/`dead_after_us`
  /// without a beat and excludes them from allocation (docs/liveness.md).
  uint64_t heartbeat_interval_us = 0;
  uint64_t suspect_after_us = 0;
  uint64_t dead_after_us = 0;
  /// Background re-replication in virtual time (0 = disabled): the provider
  /// manager runs a rebuilder pass every `rebuild_interval_us`, copying
  /// pages off dead/draining providers and evening page counts after a
  /// join (docs/page_locations.md).
  uint64_t rebuild_interval_us = 0;
  size_t rebuild_max_moves = 64;
  /// Version-lifecycle GC in virtual time (0 = disabled): the provider
  /// manager hosts a GcSweeper pass every `gc_interval_us`, evaluating
  /// retention policies and sweeping discarded versions
  /// (docs/lifecycle.md).
  uint64_t gc_interval_us = 0;
  size_t gc_max_sweep = 256;
};

/// Must be constructed from inside SimScheduler::Run (provider registration
/// issues simulated RPCs).
class SimCluster {
 public:
  SimCluster(simnet::SimScheduler* sched, const SimClusterOptions& options);

  /// Node ids.
  uint32_t vm_node() const { return 0; }
  uint32_t pm_node() const { return 1; }
  uint32_t provider_node(size_t i) const { return 2 + static_cast<uint32_t>(i); }
  uint32_t client_node(size_t i) const {
    return 2 + static_cast<uint32_t>(options_.num_provider_nodes + i);
  }
  size_t num_provider_nodes() const { return options_.num_provider_nodes; }

  /// Builds a client whose blocking behaviour, clock and executor are wired
  /// for virtual time. The client issues RPCs from whichever sim task calls
  /// it (set the task's node id to place it).
  std::unique_ptr<client::BlobClient> NewClient(
      client::ClientOptions base = {});

  simnet::SimScheduler& sched() { return *sched_; }
  simnet::SimNetwork& net() { return *net_; }
  simnet::SimTransport& transport() { return *transport_; }
  simnet::SimClock& clock() { return *clock_; }
  simnet::SimExecutor& executor() { return *executor_; }

  /// Direct service access for tests/inspection (mirrors EmbeddedCluster).
  vmanager::VersionManagerService& vmanager() { return *vm_service_; }
  pmanager::ProviderManagerService& pmanager() { return *pm_service_; }
  provider::ProviderService& provider(size_t i) {
    return *provider_services_[i];
  }
  /// Page store stats summed across providers.
  provider::PageStoreStats TotalProviderUsage() const;

  const std::string& vm_address() const { return vm_address_; }
  const std::string& pm_address() const { return pm_address_; }
  const std::vector<std::string>& dht_addresses() const {
    return dht_addresses_;
  }
  const std::vector<std::string>& provider_addresses() const {
    return provider_addresses_;
  }

  /// Kills one data provider endpoint (failure-injection tests): calls on
  /// it observe Unavailable from then on. The node's heartbeat sender dies
  /// with it (process-death semantics).
  Status StopProvider(size_t index);

  /// Kills a whole wave of providers at (nearly) the same virtual instant:
  /// every victim's heartbeat stop is requested first, then the endpoints
  /// are unserved and the senders joined — the joins overlap one beat
  /// interval for the wave instead of serializing one per victim, which is
  /// what makes 1000-provider kill waves affordable. Returns the first
  /// error, having attempted every index.
  Status StopProviders(const std::vector<size_t>& indices);

  /// Restarts a stopped provider on its original address (same service
  /// instance, so an in-memory store survives like a durable disk would):
  /// serves the endpoint again, re-registers with the provider manager
  /// (same id) and re-arms the heartbeat sender when heartbeats are on.
  Status RestartProvider(size_t index);

  /// Marks provider `index` draining (no new allocations; the rebuilder
  /// moves its pages off). Poll until `drained` before StopProvider.
  Result<pmanager::DecommissionResponse> Decommission(size_t index);

  ProviderId provider_id(size_t index) const { return provider_ids_[index]; }

  /// Scripted heartbeat loss without process death: while `lost`, the
  /// provider's RPCs to the provider manager (heartbeats, re-registrations)
  /// are dropped in the network; data-path RPCs to the provider are
  /// unaffected. Drives the suspect state deterministically.
  void SetHeartbeatLoss(size_t index, bool lost);

  /// Stops every provider's heartbeat sender. Called by the destructor so
  /// a simulation with heartbeats enabled terminates (the scheduler runs
  /// until no task remains).
  void StopHeartbeats();

  ~SimCluster();

 private:
  void StartProviderHeartbeat(size_t index);

  simnet::SimScheduler* sched_;
  SimClusterOptions options_;
  std::unique_ptr<simnet::SimNetwork> net_;
  std::unique_ptr<simnet::SimTransport> transport_;
  std::unique_ptr<simnet::SimClock> clock_;
  std::unique_ptr<simnet::SimExecutor> executor_;

  std::shared_ptr<vmanager::VersionManagerService> vm_service_;
  std::shared_ptr<pmanager::ProviderManagerService> pm_service_;
  std::vector<std::shared_ptr<dht::DhtService>> dht_services_;
  std::vector<std::shared_ptr<provider::ProviderService>> provider_services_;

  std::unique_ptr<pmanager::ProviderManagerClient> pm_client_;

  std::string vm_address_;
  std::string pm_address_;
  std::vector<std::string> dht_addresses_;
  std::vector<std::string> provider_addresses_;
  std::vector<ProviderId> provider_ids_;
  simnet::SimServiceProfile provider_profile_;
};

}  // namespace blobseer::core

#endif  // BLOBSEER_CORE_SIM_CLUSTER_H_
