// Standalone BlobSeer daemon: hosts any combination of roles on one TCP
// endpoint (the paper co-deploys a data provider and a metadata provider
// per node).
//
// Usage:
//   blobseer_server --listen=0.0.0.0:7700 --roles=vmanager,pmanager
//   blobseer_server --listen=0.0.0.0:7701 --roles=provider,meta
//       --pmanager=vmhost:7700 --store=log:/var/lib/blobseer
//
// --store selects the provider page engine: "memory" (default), "null", or
// "log:<dir>" (log-structured segment store with group-commit durability;
// see docs/pagelog_format.md).
// --compact-interval=SECONDS (0 = off, the default) runs a background
// PageStore::Compact() pass on that period so deleted pages are reclaimed
// without an operator in the loop.
//
// Liveness (docs/liveness.md): --heartbeat-interval=SECONDS (0 = off) makes
// a provider beat to its --pmanager on that period; on the pmanager role,
// --suspect-after=SECONDS / --dead-after=SECONDS (0 = detector off) arm the
// failure detector that excludes silent providers from page allocation.
//
// Version lifecycle (docs/lifecycle.md): on the pmanager role,
// --gc-interval=SECONDS (0 = off) hosts the retention/GC sweeper; it needs
// --vmanager=host:port and --meta-nodes=host:port,... to walk metadata and
// discard expired versions. --gc-max-sweep=N bounds pages swept per pass.
// --compact-dead-ratio=R (0 = off) makes a "log:" store auto-compact after
// GC deletes once a sealed segment's dead-payload ratio reaches R.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/executor.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "core/cluster.h"
#include "dht/service.h"
#include "pmanager/client.h"
#include "pmanager/service.h"
#include "provider/service.h"
#include "rpc/service.h"
#include "rpc/tcp.h"
#include "vmanager/service.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

std::string FlagValue(int argc, char** argv, const std::string& name,
                      const std::string& def) {
  std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; i++) {
    if (blobseer::StartsWith(argv[i], prefix))
      return std::string(argv[i]).substr(prefix.size());
  }
  return def;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blobseer;

  std::string listen = FlagValue(argc, argv, "listen", "127.0.0.1:7700");
  std::string roles = FlagValue(argc, argv, "roles", "provider,meta");
  std::string pm_addr = FlagValue(argc, argv, "pmanager", "");
  std::string store_spec = FlagValue(argc, argv, "store", "memory");
  std::string allocation = FlagValue(argc, argv, "allocation", "round_robin");
  uint64_t capacity =
      strtoull(FlagValue(argc, argv, "capacity", "0").c_str(), nullptr, 10);
  uint64_t compact_interval_sec = strtoull(
      FlagValue(argc, argv, "compact-interval", "0").c_str(), nullptr, 10);
  double compact_dead_ratio = strtod(
      FlagValue(argc, argv, "compact-dead-ratio", "0").c_str(), nullptr);
  uint64_t gc_interval_sec = strtoull(
      FlagValue(argc, argv, "gc-interval", "0").c_str(), nullptr, 10);
  uint64_t gc_max_sweep = strtoull(
      FlagValue(argc, argv, "gc-max-sweep", "256").c_str(), nullptr, 10);
  std::string vm_addr = FlagValue(argc, argv, "vmanager", "");
  std::string meta_nodes = FlagValue(argc, argv, "meta-nodes", "");
  uint64_t heartbeat_interval_sec = strtoull(
      FlagValue(argc, argv, "heartbeat-interval", "0").c_str(), nullptr, 10);
  uint64_t suspect_after_sec = strtoull(
      FlagValue(argc, argv, "suspect-after", "0").c_str(), nullptr, 10);
  uint64_t dead_after_sec = strtoull(
      FlagValue(argc, argv, "dead-after", "0").c_str(), nullptr, 10);
  // --dead-after alone still arms the detector (suspect_after == 0 would
  // silently disable it otherwise); the service treats dead <= suspect as
  // suspect x3, resolved here too so the banner states effective values.
  if (suspect_after_sec == 0 && dead_after_sec > 0) {
    suspect_after_sec = dead_after_sec / 3 > 0 ? dead_after_sec / 3 : 1;
  }
  if (suspect_after_sec > 0 && dead_after_sec <= suspect_after_sec) {
    dead_after_sec = 3 * suspect_after_sec;
  }

  // Declared before the services so they outlive the compaction/heartbeat
  // loops the services stop in their destructors.
  std::unique_ptr<ThreadPoolExecutor> compaction_executor;
  std::unique_ptr<ThreadPoolExecutor> heartbeat_executor;
  std::unique_ptr<ThreadPoolExecutor> gc_executor;
  std::unique_ptr<ThreadPoolExecutor> vm_executor;
  rpc::TcpTransport transport;
  auto composite = std::make_shared<rpc::CompositeHandler>();
  bool has_provider = false;
  std::shared_ptr<provider::ProviderService> provider_service;
  std::shared_ptr<pmanager::ProviderManagerService> pmanager_service;

  for (const std::string& role : StrSplit(roles, ',')) {
    if (role == "vmanager") {
      // Watchdog executor for parked AwaitPublished subscriptions.
      vm_executor = std::make_unique<ThreadPoolExecutor>(4);
      composite->Register(400,
                          std::make_shared<vmanager::VersionManagerService>(
                              nullptr, vm_executor.get()));
    } else if (role == "pmanager") {
      pmanager_service = std::make_shared<pmanager::ProviderManagerService>(
          pmanager::MakeStrategy(allocation), RealClock::Default(),
          pmanager::LivenessOptions{suspect_after_sec * 1000 * 1000,
                                    dead_after_sec * 1000 * 1000});
      composite->Register(300, pmanager_service);
      if (suspect_after_sec > 0) {
        printf("failure detector armed: suspect after %llu s, dead after "
               "%llu s\n",
               static_cast<unsigned long long>(suspect_after_sec),
               static_cast<unsigned long long>(dead_after_sec));
      }
    } else if (role == "meta") {
      composite->Register(100, std::make_shared<dht::DhtService>());
    } else if (role == "provider") {
      pagelog::LogPageStoreOptions lo;
      lo.compact_dead_ratio = compact_dead_ratio;
      auto store = core::MakePageStore(store_spec, lo);
      if (!store) {
        fprintf(stderr, "unknown --store: %s\n", store_spec.c_str());
        return 2;
      }
      provider_service =
          std::make_shared<provider::ProviderService>(std::move(store));
      if (compact_interval_sec > 0) {
        compaction_executor = std::make_unique<ThreadPoolExecutor>(1);
        provider_service->StartPeriodicCompaction(
            compaction_executor.get(), compact_interval_sec * 1000 * 1000);
        printf("background compaction every %llu s\n",
               static_cast<unsigned long long>(compact_interval_sec));
      }
      composite->Register(200, provider_service);
      has_provider = true;
    } else if (!role.empty()) {
      fprintf(stderr, "unknown role: %s\n", role.c_str());
      return 2;
    }
  }

  auto bound = transport.Serve(listen, composite);
  if (!bound.ok()) {
    fprintf(stderr, "serve failed: %s\n", bound.status().ToString().c_str());
    return 1;
  }
  printf("blobseer_server listening on %s (roles: %s)\n", bound->c_str(),
         roles.c_str());
  fflush(stdout);

  if (pmanager_service && gc_interval_sec > 0) {
    if (vm_addr.empty() || meta_nodes.empty()) {
      fprintf(stderr,
              "--gc-interval requires --vmanager=host:port and "
              "--meta-nodes=host:port,...\n");
      return 2;
    }
    std::vector<std::string> dht_nodes;
    for (const std::string& n : StrSplit(meta_nodes, ','))
      if (!n.empty()) dht_nodes.push_back(n);
    lifecycle::GcOptions go;
    go.interval_us = gc_interval_sec * 1000 * 1000;
    go.max_sweep_per_pass = gc_max_sweep;
    gc_executor = std::make_unique<ThreadPoolExecutor>(1);
    pmanager_service->StartGcSweeper(gc_executor.get(), RealClock::Default(),
                                     &transport, vm_addr, dht_nodes,
                                     dht::DhtClientOptions{}, go);
    printf("gc sweeper every %llu s (max %llu pages/pass) against %s\n",
           static_cast<unsigned long long>(gc_interval_sec),
           static_cast<unsigned long long>(gc_max_sweep), vm_addr.c_str());
    fflush(stdout);
  }

  if (has_provider) {
    if (pm_addr.empty()) {
      fprintf(stderr, "provider role requires --pmanager=host:port\n");
      return 2;
    }
    pmanager::ProviderManagerClient pm(&transport, pm_addr);
    auto id = pm.RegisterAsync(*bound, capacity).Wait();
    if (!id.ok()) {
      fprintf(stderr, "provider registration failed: %s\n",
              id.status().ToString().c_str());
      return 1;
    }
    printf("registered as provider %u with %s\n", *id, pm_addr.c_str());
    if (heartbeat_interval_sec > 0) {
      heartbeat_executor = std::make_unique<ThreadPoolExecutor>(1);
      provider::HeartbeatConfig hb;
      hb.transport = &transport;
      hb.pmanager_address = pm_addr;
      hb.self_address = *bound;
      hb.capacity_pages = capacity;
      hb.id = *id;
      hb.interval_us = heartbeat_interval_sec * 1000 * 1000;
      provider_service->StartHeartbeat(heartbeat_executor.get(),
                                       RealClock::Default(), std::move(hb));
      printf("heartbeating every %llu s\n",
             static_cast<unsigned long long>(heartbeat_interval_sec));
    }
    fflush(stdout);
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop) {
    RealClock::Default()->SleepForMicros(200 * 1000);
  }
  printf("shutting down\n");
  if (provider_service) {
    // Final page-store statistics, one name=value pair per counter.
    printf("provider stats:");
    stats::ForEach(provider_service->store().GetStats(),
                   [](const char* name, uint64_t value) {
                     printf(" %s=%llu", name,
                            static_cast<unsigned long long>(value));
                   });
    printf("\n");
  }
  return 0;
}
