#include "core/cluster.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "pmanager/client.h"

namespace blobseer::core {

std::unique_ptr<provider::PageStore> MakePageStore(
    const std::string& spec, const pagelog::LogPageStoreOptions& log) {
  if (spec == "memory") return provider::MakeMemoryPageStore();
  if (spec == "null") return provider::MakeNullPageStore();
  if (StartsWith(spec, "log:"))
    return pagelog::MakeLogPageStore(spec.substr(4), log);
  return nullptr;
}

namespace {

// Provider `index`'s store; a "log:" store gets its own provider-N
// subdirectory. nullptr for an unknown spec.
std::unique_ptr<provider::PageStore> MakeStore(const ClusterOptions& options,
                                               size_t index) {
  pagelog::LogPageStoreOptions lo;
  lo.compact_dead_ratio = options.log_compact_dead_ratio;
  if (options.log_segment_target_bytes > 0)
    lo.segment_target_bytes = options.log_segment_target_bytes;
  std::string spec = options.page_store;
  if (StartsWith(spec, "log:")) spec += StrFormat("/provider-%zu", index);
  return MakePageStore(spec, lo);
}

}  // namespace

Result<std::unique_ptr<EmbeddedCluster>> EmbeddedCluster::Start(
    const ClusterOptions& options) {
  if (options.num_providers == 0 || options.num_meta == 0)
    return Status::InvalidArgument("cluster needs providers and meta nodes");

  std::unique_ptr<EmbeddedCluster> c(new EmbeddedCluster());
  c->options_ = options;
  if (options.transport == "tcp") {
    c->tcp_ = std::make_unique<rpc::TcpTransport>();
    c->transport_ = c->tcp_.get();
  } else if (options.transport == "inproc") {
    c->inproc_ = std::make_unique<rpc::InProcNetwork>();
    c->transport_ = c->inproc_.get();
  } else {
    return Status::InvalidArgument("unknown transport: " + options.transport);
  }
  const bool tcp = c->tcp_ != nullptr;
  auto bind_addr = [&](const std::string& name) {
    return tcp ? std::string("127.0.0.1:0") : "inproc://" + name;
  };

  // Version manager and provider manager on dedicated endpoints (the paper
  // deploys each on a dedicated node).
  c->vm_executor_ = std::make_unique<ThreadPoolExecutor>(2);
  c->vm_service_ = std::make_shared<vmanager::VersionManagerService>(
      nullptr, c->vm_executor_.get());
  {
    auto addr = c->transport_->Serve(bind_addr("vmanager"), c->vm_service_);
    if (!addr.ok()) return addr.status();
    c->vm_address_ = std::move(addr).ValueUnsafe();
  }
  c->pm_service_ = std::make_shared<pmanager::ProviderManagerService>(
      pmanager::MakeStrategy(options.allocation), RealClock::Default(),
      pmanager::LivenessOptions{options.suspect_after_us,
                                options.dead_after_us});
  {
    auto addr = c->transport_->Serve(bind_addr("pmanager"), c->pm_service_);
    if (!addr.ok()) return addr.status();
    c->pm_address_ = std::move(addr).ValueUnsafe();
  }

  for (size_t i = 0; i < options.num_meta; i++) {
    auto svc = std::make_shared<dht::DhtService>();
    auto addr =
        c->transport_->Serve(bind_addr(StrFormat("meta-%zu", i)), svc);
    if (!addr.ok()) return addr.status();
    c->dht_services_.push_back(std::move(svc));
    c->dht_addresses_.push_back(std::move(addr).ValueUnsafe());
  }

  c->pm_client_ = std::make_unique<pmanager::ProviderManagerClient>(
      c->transport_, c->pm_address_);
  // One worker per heartbeat sender loop (each parks its thread between
  // beats) plus spares for providers added later, plus one for the
  // rebuilder loop.
  size_t workers =
      (options.heartbeat_interval_us > 0 ? options.num_providers + 4 : 0) +
      (options.rebuild_interval_us > 0 ? 1 : 0) +
      (options.gc_interval_us > 0 ? 1 : 0);
  if (workers > 0)
    c->hb_executor_ = std::make_unique<ThreadPoolExecutor>(workers);
  for (size_t i = 0; i < options.num_providers; i++) {
    auto store = MakeStore(options, i);
    if (!store)
      return Status::InvalidArgument("unknown page_store: " +
                                     options.page_store);
    auto svc = std::make_shared<provider::ProviderService>(std::move(store));
    auto addr =
        c->transport_->Serve(bind_addr(StrFormat("provider-%zu", i)), svc);
    if (!addr.ok()) return addr.status();
    c->provider_services_.push_back(std::move(svc));
    c->provider_addresses_.push_back(std::move(addr).ValueUnsafe());
    auto id = c->RegisterProvider(i);
    if (!id.ok()) return id.status();
    c->provider_ids_.push_back(*id);
    BS_RETURN_NOT_OK(c->StartProviderHeartbeat(i));
  }
  if (options.rebuild_interval_us > 0) {
    locator::RebuildOptions ro;
    ro.interval_us = options.rebuild_interval_us;
    ro.max_moves_per_pass = options.rebuild_max_moves;
    // Default DhtClientOptions: the rebuilder's CAS placement must match
    // the clients', which also run defaults (placement is positional over
    // the same node list).
    c->pm_service_->StartRebuilder(c->hb_executor_.get(),
                                   RealClock::Default(), c->transport_,
                                   c->dht_addresses_, dht::DhtClientOptions{},
                                   ro);
  }
  if (options.gc_interval_us > 0) {
    lifecycle::GcOptions go;
    go.interval_us = options.gc_interval_us;
    go.max_sweep_per_pass = options.gc_max_sweep;
    c->pm_service_->StartGcSweeper(c->hb_executor_.get(), RealClock::Default(),
                                   c->transport_, c->vm_address_,
                                   c->dht_addresses_, dht::DhtClientOptions{},
                                   go);
  }
  return c;
}

Result<ProviderId> EmbeddedCluster::RegisterProvider(size_t index) {
  // Embedded providers take pages without a capacity bound (0).
  return pm_client_->RegisterAsync(provider_addresses_[index], 0).Wait();
}

Status EmbeddedCluster::StartProviderHeartbeat(size_t index) {
  if (options_.heartbeat_interval_us == 0) return Status::OK();
  provider::HeartbeatConfig config;
  config.transport = transport_;
  config.pmanager_address = pm_address_;
  config.self_address = provider_addresses_[index];
  config.id = provider_ids_[index];
  config.interval_us = options_.heartbeat_interval_us;
  provider_services_[index]->StartHeartbeat(
      hb_executor_.get(), RealClock::Default(), std::move(config));
  return Status::OK();
}

EmbeddedCluster::~EmbeddedCluster() {
  if (!transport_) return;
  // Stop the sweeper and rebuilder before tearing down endpoints: a pass
  // in flight would otherwise race teardown with doomed RPCs. The sweeper
  // must report drained — a pass (or any of its delete RPCs) outliving
  // Stop would use-after-free the transport.
  if (pm_service_) {
    BS_CHECK(pm_service_->StopGcSweeper());
    pm_service_->StopRebuilder();
  }
  (void)transport_->StopServing(vm_address_);
  (void)transport_->StopServing(pm_address_);
  for (const auto& a : dht_addresses_) (void)transport_->StopServing(a);
  for (const auto& a : provider_addresses_) (void)transport_->StopServing(a);
}

Result<std::unique_ptr<client::BlobClient>> EmbeddedCluster::NewClient(
    client::ClientOptions options) {
  options.replication = std::max(options.replication, options_.replication);
  if (options.write_quorum == 0) options.write_quorum = options_.write_quorum;
  return std::make_unique<client::BlobClient>(
      transport_, vm_address_, pm_address_, dht_addresses_, options);
}

provider::PageStoreStats EmbeddedCluster::TotalProviderUsage() const {
  provider::PageStoreStats total;
  for (const auto& svc : provider_services_)
    stats::Add(&total, svc->store().GetStats());
  return total;
}

dht::StoreStats EmbeddedCluster::TotalMetadataUsage() const {
  dht::StoreStats total;
  for (const auto& svc : dht_services_)
    stats::Add(&total, svc->store().GetStats());
  return total;
}

Status EmbeddedCluster::StopProvider(size_t index) {
  if (index >= provider_addresses_.size())
    return Status::InvalidArgument("provider index");
  // Process-death semantics: the endpoint dies and so does its heartbeat,
  // so the failure detector can notice.
  provider_services_[index]->StopHeartbeat();
  return transport_->StopServing(provider_addresses_[index]);
}

Status EmbeddedCluster::RestartProvider(size_t index) {
  if (index >= provider_addresses_.size())
    return Status::InvalidArgument("provider index");
  auto addr = transport_->Serve(provider_addresses_[index],
                                provider_services_[index]);
  if (!addr.ok()) return addr.status();
  // Same address -> the provider manager hands back the same id and marks
  // the record alive again.
  auto id = RegisterProvider(index);
  if (!id.ok()) return id.status();
  provider_ids_[index] = *id;
  return StartProviderHeartbeat(index);
}

Result<size_t> EmbeddedCluster::AddProvider() {
  const bool tcp = tcp_ != nullptr;
  size_t index = provider_services_.size();
  auto svc = std::make_shared<provider::ProviderService>(
      MakeStore(options_, index));
  auto addr = transport_->Serve(
      tcp ? std::string("127.0.0.1:0")
          : StrFormat("inproc://provider-%zu", index),
      svc);
  if (!addr.ok()) return addr.status();
  provider_services_.push_back(std::move(svc));
  provider_addresses_.push_back(std::move(addr).ValueUnsafe());
  auto id = RegisterProvider(index);
  if (!id.ok()) return id.status();
  provider_ids_.push_back(*id);
  // The heartbeat executor was sized with spare workers for a few joins.
  BS_RETURN_NOT_OK(StartProviderHeartbeat(index));
  return index;
}

Result<pmanager::DecommissionResponse> EmbeddedCluster::Decommission(
    size_t index) {
  if (index >= provider_ids_.size())
    return Status::InvalidArgument("provider index");
  return pm_client_->DecommissionAsync(provider_ids_[index]).Wait();
}

}  // namespace blobseer::core
