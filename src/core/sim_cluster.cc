#include "core/sim_cluster.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "core/cluster.h"
#include "pmanager/client.h"

namespace blobseer::core {

SimCluster::SimCluster(simnet::SimScheduler* sched,
                       const SimClusterOptions& options)
    : sched_(sched), options_(options) {
  size_t total_nodes =
      2 + options.num_provider_nodes + options.num_client_nodes;
  net_ = std::make_unique<simnet::SimNetwork>(sched_, total_nodes,
                                              options.net);
  transport_ = std::make_unique<simnet::SimTransport>(sched_, net_.get());
  clock_ = std::make_unique<simnet::SimClock>(sched_);
  executor_ = std::make_unique<simnet::SimExecutor>(sched_);

  simnet::SimServiceProfile manager_profile{options.manager_cpu_us, 1};
  simnet::SimServiceProfile dht_profile{options.dht_cpu_us, 4};
  simnet::SimServiceProfile provider_profile{options.provider_cpu_us,
                                             options.provider_concurrency};

  vm_service_ = std::make_shared<vmanager::VersionManagerService>(
      clock_.get(), executor_.get());
  vm_address_ = simnet::SimTransport::MakeAddress(vm_node(), "vmanager");
  transport_->SetServiceProfile(vm_address_, manager_profile);
  BS_CHECK(transport_->Serve(vm_address_, vm_service_).ok());

  pm_service_ = std::make_shared<pmanager::ProviderManagerService>(
      pmanager::MakeStrategy(options.allocation), clock_.get(),
      pmanager::LivenessOptions{options.suspect_after_us,
                                options.dead_after_us});
  pm_address_ = simnet::SimTransport::MakeAddress(pm_node(), "pmanager");
  transport_->SetServiceProfile(pm_address_, manager_profile);
  BS_CHECK(transport_->Serve(pm_address_, pm_service_).ok());

  provider_profile_ = provider_profile;
  pm_client_ = std::make_unique<pmanager::ProviderManagerClient>(
      transport_.get(), pm_address_);
  const size_t dht_nodes =
      options.num_dht_nodes == 0
          ? options.num_provider_nodes
          : std::min(options.num_dht_nodes, options.num_provider_nodes);
  for (size_t i = 0; i < options.num_provider_nodes; i++) {
    uint32_t node = provider_node(i);

    if (i < dht_nodes) {
      auto dht_svc = std::make_shared<dht::DhtService>();
      std::string dht_addr = simnet::SimTransport::MakeAddress(node, "meta");
      transport_->SetServiceProfile(dht_addr, dht_profile);
      BS_CHECK(transport_->Serve(dht_addr, dht_svc).ok());
      dht_services_.push_back(std::move(dht_svc));
      dht_addresses_.push_back(std::move(dht_addr));
    }

    std::string spec = options.page_store;
    if (StartsWith(spec, "log:")) spec += StrFormat("/provider-%zu", i);
    auto store = MakePageStore(spec);
    BS_CHECK(store != nullptr) << "unknown page_store: " << spec;
    auto prov_svc =
        std::make_shared<provider::ProviderService>(std::move(store));
    std::string prov_addr =
        simnet::SimTransport::MakeAddress(node, "provider");
    transport_->SetServiceProfile(prov_addr, provider_profile);
    BS_CHECK(transport_->Serve(prov_addr, prov_svc).ok());
    provider_services_.push_back(std::move(prov_svc));
    provider_addresses_.push_back(prov_addr);
    auto id = pm_client_->RegisterAsync(prov_addr, 0).Wait(executor_.get());
    BS_CHECK(id.ok()) << id.status().ToString();
    provider_ids_.push_back(*id);
    StartProviderHeartbeat(i);
  }

  if (options.rebuild_interval_us > 0) {
    locator::RebuildOptions ro;
    ro.interval_us = options.rebuild_interval_us;
    ro.max_moves_per_pass = options.rebuild_max_moves;
    // The rebuilder loop is a sim task; spawn it from the provider
    // manager's node so its copy/CAS RPCs originate there in the network
    // model. Default DhtClientOptions so CAS placement matches clients'.
    uint32_t caller_node = sched_->CurrentNode();
    sched_->SetCurrentNode(pm_node());
    pm_service_->StartRebuilder(executor_.get(), clock_.get(),
                                transport_.get(), dht_addresses_,
                                dht::DhtClientOptions{}, ro);
    sched_->SetCurrentNode(caller_node);
  }

  if (options.gc_interval_us > 0) {
    lifecycle::GcOptions go;
    go.interval_us = options.gc_interval_us;
    go.max_sweep_per_pass = options.gc_max_sweep;
    // Like the rebuilder: the sweeper loop is a sim task spawned from the
    // provider manager's node so its walk/delete RPCs originate there.
    uint32_t caller_node = sched_->CurrentNode();
    sched_->SetCurrentNode(pm_node());
    pm_service_->StartGcSweeper(executor_.get(), clock_.get(),
                                transport_.get(), vm_address_, dht_addresses_,
                                dht::DhtClientOptions{}, go);
    sched_->SetCurrentNode(caller_node);
  }
}

SimCluster::~SimCluster() {
  // The sweeper and rebuilder loops must stop before the scheduler can
  // drain (they would otherwise re-arm forever in virtual time), and
  // before heartbeats so a final pass still sees a live provider
  // directory. The sweeper must also report drained: a pass outliving
  // Stop would race cluster teardown.
  BS_CHECK(pm_service_->StopGcSweeper());
  pm_service_->StopRebuilder();
  StopHeartbeats();
}

void SimCluster::StartProviderHeartbeat(size_t index) {
  if (options_.heartbeat_interval_us == 0) return;
  provider::HeartbeatConfig config;
  config.transport = transport_.get();
  config.pmanager_address = pm_address_;
  config.self_address = provider_addresses_[index];
  config.capacity_pages = 0;
  config.id = provider_ids_[index];
  config.interval_us = options_.heartbeat_interval_us;
  // Stagger first beats across the interval: n synchronized senders would
  // otherwise all fire on the same virtual tick forever, serializing n
  // RPCs through the provider manager at every beat boundary.
  config.initial_delay_us =
      1 + (index * options_.heartbeat_interval_us) /
              std::max<size_t>(options_.num_provider_nodes, 1);
  // The sender loop is a sim task spawned via the executor; tasks inherit
  // the spawner's node, so place the caller on the provider's node for the
  // duration of the call — its beats then originate from that node in the
  // network model.
  uint32_t caller_node = sched_->CurrentNode();
  sched_->SetCurrentNode(provider_node(index));
  provider_services_[index]->StartHeartbeat(executor_.get(), clock_.get(),
                                            std::move(config));
  sched_->SetCurrentNode(caller_node);
}

void SimCluster::StopHeartbeats() {
  // Two-phase: request every stop, then join. Each join waits at most one
  // beat interval, and the requested flags let those waits overlap —
  // serial StopHeartbeat calls would cost ~n/2 intervals at n providers.
  for (auto& svc : provider_services_) svc->RequestStopHeartbeat();
  for (auto& svc : provider_services_) svc->StopHeartbeat();
}

std::unique_ptr<client::BlobClient> SimCluster::NewClient(
    client::ClientOptions base) {
  base.replication = std::max(base.replication, options_.replication);
  if (base.write_quorum == 0) base.write_quorum = options_.write_quorum;
  return std::make_unique<client::BlobClient>(
      transport_.get(), vm_address_, pm_address_, dht_addresses_, base,
      clock_.get(), executor_.get());
}

provider::PageStoreStats SimCluster::TotalProviderUsage() const {
  provider::PageStoreStats total;
  for (const auto& svc : provider_services_)
    stats::Add(&total, svc->store().GetStats());
  return total;
}

Status SimCluster::StopProvider(size_t index) {
  if (index >= provider_addresses_.size())
    return Status::InvalidArgument("provider index");
  // Process-death semantics: the heartbeat dies with the endpoint (this
  // blocks the calling sim task for up to one beat interval).
  provider_services_[index]->StopHeartbeat();
  return transport_->StopServing(provider_addresses_[index]);
}

Status SimCluster::StopProviders(const std::vector<size_t>& indices) {
  Status first = Status::OK();
  for (size_t index : indices) {
    if (index >= provider_addresses_.size()) {
      if (first.ok()) first = Status::InvalidArgument("provider index");
      continue;
    }
    provider_services_[index]->RequestStopHeartbeat();
  }
  for (size_t index : indices) {
    if (index >= provider_addresses_.size()) continue;
    provider_services_[index]->StopHeartbeat();
    Status s = transport_->StopServing(provider_addresses_[index]);
    if (first.ok() && !s.ok()) first = s;
  }
  return first;
}

Status SimCluster::RestartProvider(size_t index) {
  if (index >= provider_addresses_.size())
    return Status::InvalidArgument("provider index");
  const std::string& addr = provider_addresses_[index];
  transport_->SetServiceProfile(addr, provider_profile_);
  auto served = transport_->Serve(addr, provider_services_[index]);
  if (!served.ok()) return served.status();
  // Same address -> same id; registration also flips the record alive.
  auto id = pm_client_->RegisterAsync(addr, 0).Wait(executor_.get());
  if (!id.ok()) return id.status();
  provider_ids_[index] = *id;
  StartProviderHeartbeat(index);
  return Status::OK();
}

Result<pmanager::DecommissionResponse> SimCluster::Decommission(size_t index) {
  if (index >= provider_ids_.size())
    return Status::InvalidArgument("provider index");
  return pm_client_->DecommissionAsync(provider_ids_[index]).Wait(
      executor_.get());
}

void SimCluster::SetHeartbeatLoss(size_t index, bool lost) {
  transport_->SetDropCallsFrom(provider_node(index), pm_address_, lost);
}

}  // namespace blobseer::core
