// Workload driver: replays declarative multi-tenant traffic specs
// (docs/workload.md) through the async BlobClient against all three
// harnesses — embedded in-process, real TCP loopback daemons, and the
// simulated network — and, on simnet, runs membership/chaos campaigns at
// 1000+ providers in virtual time (kill waves mid-traffic, flash crowds
// during rebuild, decommission storms, scripted latency). Every campaign
// emits a BENCH_workload_*.json trajectory artifact with per-op latency
// percentiles, a throughput timeline, and cluster counters.
//
//   workload_driver --quick                        # smoke every campaign
//   workload_driver --harness=simnet --scenario=flash_crowd
//   workload_driver --campaign=scale --providers=2000 --kill-wave=100
//   workload_driver --spec=my.wl --wl:ops=5000 --wl:zipf_theta=1.2
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "client/blob_client.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "core/cluster.h"
#include "core/sim_cluster.h"
#include "pmanager/client.h"
#include "workload/generator.h"
#include "workload/histogram.h"
#include "workload/runner.h"
#include "workload/spec.h"

namespace {

using blobseer::RealClock;
using blobseer::Status;
using blobseer::StrFormat;
using blobseer::bench::FlagU64;
using blobseer::bench::FlagValue;
using blobseer::bench::JsonArray;
using blobseer::bench::JsonObject;
using blobseer::bench::QuickMode;
using blobseer::bench::StatsJson;
using blobseer::bench::Table;
using blobseer::bench::WriteJsonFile;
using blobseer::workload::GenerateSchedule;
using blobseer::workload::LatencyHistogram;
using blobseer::workload::RunnerOptions;
using blobseer::workload::Schedule;
using blobseer::workload::Timeline;
using blobseer::workload::WorkloadReport;
using blobseer::workload::WorkloadRunner;
using blobseer::workload::WorkloadSpec;

// ---------------------------------------------------------------------------
// Aggregated campaign outcome (any harness).

struct CampaignStats {
  WorkloadReport report;
  uint64_t retained_checked = 0;
  bool verify_ok = false;
  std::string verify_error;
  blobseer::client::ClientStats client{};
  blobseer::pmanager::PmStats pm{};
  bool have_pm = false;
  blobseer::provider::PageStoreStats store{};
  /// Wall seconds on real harnesses, virtual seconds on simnet.
  double elapsed_s = 0;
};

// ---------------------------------------------------------------------------
// JSON rendering (shared schema across every campaign artifact).

JsonObject SpecJson(const WorkloadSpec& spec) {
  JsonObject o;
  for (const auto& [key, value] : spec.Items()) {
    if (key == "scenario") {
      o.PutString(key, value);
    } else if (key == "read_fraction" || key == "zipf_theta" ||
               key == "append_fraction" || key == "flash_crowd_at") {
      o.PutDouble(key, strtod(value.c_str(), nullptr));
    } else {
      o.PutU64(key, strtoull(value.c_str(), nullptr, 10));
    }
  }
  return o;
}

JsonObject LatencyJson(const LatencyHistogram& h) {
  JsonObject o;
  o.PutU64("count", h.count());
  o.PutDouble("mean", h.mean_us());
  o.PutU64("p50", h.Percentile(0.50));
  o.PutU64("p90", h.Percentile(0.90));
  o.PutU64("p99", h.Percentile(0.99));
  o.PutU64("p999", h.Percentile(0.999));
  o.PutU64("max", h.max_us());
  return o;
}

JsonObject TimelineJson(const Timeline& t) {
  JsonObject o;
  o.PutDouble("bucket_s", double(t.bucket_us()) / 1e6);
  JsonArray ops;
  JsonArray mbytes;
  for (size_t i = 0; i < t.ops().size(); i++) {
    ops.AddU64(t.ops()[i]);
    mbytes.AddDouble(double(t.bytes()[i]) / 1e6);
  }
  o.PutArray("ops", ops);
  o.PutArray("mbytes", mbytes);
  return o;
}

JsonObject OpsJson(const WorkloadReport& r) {
  JsonObject o;
  o.PutU64("issued", r.ops_issued);
  o.PutU64("creates", r.creates);
  o.PutU64("reads", r.reads);
  o.PutU64("appends", r.appends);
  o.PutU64("writes", r.writes);
  o.PutU64("departures", r.departures);
  o.PutU64("read_bytes", r.read_bytes);
  o.PutU64("written_bytes", r.written_bytes);
  o.PutU64("verified_reads", r.verified_reads);
  o.PutU64("verify_failures", r.verify_failures);
  o.PutU64("not_found_reads", r.not_found_reads);
  o.PutU64("read_errors", r.read_errors);
  o.PutU64("write_errors", r.write_errors);
  return o;
}

JsonObject CampaignJson(const CampaignStats& st) {
  JsonObject o;
  o.PutDouble("elapsed_s", st.elapsed_s);
  const WorkloadReport& r = st.report;
  uint64_t window_ops = r.reads + r.appends + r.writes;
  o.PutDouble("ops_per_sec",
              st.elapsed_s > 0 ? double(window_ops) / st.elapsed_s : 0);
  o.PutDouble("read_mbps", st.elapsed_s > 0
                               ? double(r.read_bytes) / 1e6 / st.elapsed_s
                               : 0);
  o.PutDouble("write_mbps", st.elapsed_s > 0
                                ? double(r.written_bytes) / 1e6 / st.elapsed_s
                                : 0);
  o.PutObject("ops", OpsJson(r));
  JsonObject lat;
  lat.PutObject("read", LatencyJson(r.read_latency));
  lat.PutObject("write", LatencyJson(r.write_latency));
  o.PutObject("latency_us", lat);
  o.PutObject("timeline", TimelineJson(r.timeline));
  o.PutObject("client", StatsJson(st.client));
  if (st.have_pm) o.PutObject("pm", StatsJson(st.pm));
  JsonObject store;
  store.PutU64("pages", st.store.pages);
  store.PutU64("bytes", st.store.bytes);
  o.PutObject("store", store);
  JsonObject verify;
  verify.PutBool("ok", st.verify_ok);
  verify.PutU64("retained_versions_checked", st.retained_checked);
  if (!st.verify_ok) verify.PutString("error", st.verify_error);
  o.PutObject("verify", verify);
  return o;
}

// ---------------------------------------------------------------------------
// Campaign configuration.

struct DriverConfig {
  bool quick = false;
  WorkloadSpec spec;         // mixed-campaign spec (per worker; seed+w)
  size_t workers = 2;
  size_t providers = 4;      // real harnesses
  size_t sim_providers = 50; // simnet mixed harness
  uint32_t replication = 2;
  uint32_t write_quorum = 0;
  size_t window = 32;
  std::string json_prefix = "BENCH_workload";
  // Scale campaign.
  size_t scale_providers = 1000;
  size_t scale_workers = 4;
  size_t scale_dht_nodes = 64;
  size_t kill_wave = 20;
  size_t decommission = 2;
};

uint64_t WindowOpCount(const Schedule& s) {
  uint64_t n = 0;
  for (const auto& op : s.ops) {
    if (op.kind != blobseer::workload::OpKind::kCreate &&
        op.kind != blobseer::workload::OpKind::kDepart) {
      n++;
    }
  }
  return n;
}

bool MixedGates(const CampaignStats& st, JsonObject* gates) {
  const WorkloadReport& r = st.report;
  bool no_write_errors = r.write_errors == 0;
  bool no_read_errors = r.read_errors == 0 && r.not_found_reads == 0;
  bool reads_verified = r.verify_failures == 0 && r.verified_reads > 0;
  bool pass =
      no_write_errors && no_read_errors && reads_verified && st.verify_ok;
  gates->PutBool("no_write_errors", no_write_errors);
  gates->PutBool("no_read_errors", no_read_errors);
  gates->PutBool("reads_verified", reads_verified);
  gates->PutBool("retained_verified", st.verify_ok);
  gates->PutBool("pass", pass);
  return pass;
}

void AddSummaryRow(Table* summary, const std::string& campaign,
                   const std::string& harness, const CampaignStats& st,
                   bool pass) {
  const WorkloadReport& r = st.report;
  summary->AddRow(
      {campaign, harness, StrFormat("%" PRIu64, r.reads + r.appends + r.writes),
       StrFormat("%" PRIu64, r.read_latency.Percentile(0.99)),
       StrFormat("%" PRIu64, r.write_latency.Percentile(0.99)),
       StrFormat("%" PRIu64,
                 r.verify_failures + r.read_errors + r.write_errors),
       pass ? "yes" : "NO"});
}

// ---------------------------------------------------------------------------
// Mixed campaign on the real harnesses (embedded inproc / TCP loopback):
// one OS thread per worker, each with its own client, tenants and seed.

bool RunRealMixed(const DriverConfig& cfg, const std::string& harness,
                  Table* summary) {
  printf("\n=== mixed campaign · %s · %zu workers x %" PRIu64
         " ops · r=%u w=%u ===\n",
         harness.c_str(), cfg.workers, cfg.spec.ops, cfg.replication,
         cfg.write_quorum);
  blobseer::core::ClusterOptions co;
  co.transport = harness == "tcp" ? "tcp" : "inproc";
  co.num_providers = cfg.providers;
  co.num_meta = 4;
  co.page_store = "memory";
  co.replication = cfg.replication;
  co.write_quorum = cfg.write_quorum;
  auto cluster = blobseer::core::EmbeddedCluster::Start(co);
  if (!cluster.ok()) {
    fprintf(stderr, "cluster start failed: %s\n",
            cluster.status().ToString().c_str());
    return false;
  }

  blobseer::Clock* clock = RealClock::Default();
  const uint64_t epoch = clock->NowMicros();
  std::vector<std::unique_ptr<blobseer::client::BlobClient>> clients;
  std::vector<std::unique_ptr<WorkloadRunner>> runners;
  std::vector<WorkloadSpec> specs;
  std::vector<Schedule> schedules;
  for (size_t w = 0; w < cfg.workers; w++) {
    auto client = (*cluster)->NewClient();
    if (!client.ok()) {
      fprintf(stderr, "client start failed: %s\n",
              client.status().ToString().c_str());
      return false;
    }
    clients.push_back(std::move(*client));
    WorkloadSpec spec = cfg.spec;
    spec.seed += w;  // distinct tenants + schedule per worker
    specs.push_back(spec);
    schedules.push_back(GenerateSchedule(spec));
    RunnerOptions ro;
    ro.window = cfg.window;
    ro.epoch_us = epoch;
    ro.timeline_bucket_us = 500 * 1000;
    runners.push_back(std::make_unique<WorkloadRunner>(clients[w].get(),
                                                       clock, ro));
  }

  std::vector<Status> statuses(cfg.workers);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < cfg.workers; w++) {
    threads.emplace_back([&, w] {
      statuses[w] = runners[w]->Run(specs[w], schedules[w]);
    });
  }
  for (auto& t : threads) t.join();

  CampaignStats st;
  st.verify_ok = true;
  for (size_t w = 0; w < cfg.workers; w++) {
    if (!statuses[w].ok()) {
      st.verify_ok = false;
      st.verify_error = statuses[w].ToString();
    }
    uint64_t checked = 0;
    Status vs = runners[w]->VerifyRetained(/*allow_not_found=*/false,
                                           &checked);
    if (!vs.ok() && st.verify_ok) {
      st.verify_ok = false;
      st.verify_error = vs.ToString();
    }
    st.retained_checked += checked;
    st.report.Merge(runners[w]->report());
    blobseer::stats::Add(&st.client, clients[w]->GetStats());
  }
  st.elapsed_s = double(clock->NowMicros() - epoch) / 1e6;
  st.store = (*cluster)->TotalProviderUsage();
  blobseer::pmanager::ProviderManagerClient pm((*cluster)->transport(),
                                               (*cluster)->pmanager_address());
  auto pm_stats = pm.FetchStatsAsync().Wait();
  if (pm_stats.ok()) {
    st.pm = *pm_stats;
    st.have_pm = true;
  }

  JsonObject doc;
  doc.PutString("bench", "workload");
  doc.PutString("campaign", "mixed");
  doc.PutString("harness", harness);
  doc.PutBool("quick", cfg.quick);
  doc.PutObject("spec", SpecJson(cfg.spec));
  JsonObject cl;
  cl.PutU64("providers", cfg.providers);
  cl.PutU64("replication", cfg.replication);
  cl.PutU64("write_quorum", cfg.write_quorum);
  cl.PutU64("workers", cfg.workers);
  cl.PutU64("window", cfg.window);
  doc.PutObject("cluster", cl);
  doc.PutObject("results", CampaignJson(st));
  JsonObject gates;
  bool pass = MixedGates(st, &gates);
  doc.PutObject("gates", gates);
  WriteJsonFile(cfg.json_prefix + "_mixed_" + harness + ".json", doc);
  AddSummaryRow(summary, "mixed", harness, st, pass);
  if (!st.verify_ok) {
    fprintf(stderr, "verification failed: %s\n", st.verify_error.c_str());
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Mixed campaign on simnet: same spec, virtual time, workers as sim tasks
// on dedicated client nodes.

bool RunSimMixed(const DriverConfig& cfg, Table* summary) {
  printf("\n=== mixed campaign · simnet · %zu providers · %zu workers x %"
         PRIu64 " ops ===\n",
         cfg.sim_providers, cfg.workers, cfg.spec.ops);
  blobseer::simnet::SimScheduler sched;
  CampaignStats st;
  bool pass = false;
  JsonObject doc;
  sched.Run([&] {
    blobseer::core::SimClusterOptions so;
    so.num_provider_nodes = cfg.sim_providers;
    so.num_client_nodes = cfg.workers;
    so.page_store = "memory";
    so.replication = cfg.replication;
    so.write_quorum = cfg.write_quorum;
    blobseer::core::SimCluster cluster(&sched, so);

    const uint64_t epoch = cluster.clock().NowMicros();
    std::vector<std::unique_ptr<blobseer::client::BlobClient>> clients;
    std::vector<std::unique_ptr<WorkloadRunner>> runners;
    std::vector<WorkloadSpec> specs;
    std::vector<Schedule> schedules;
    std::vector<Status> statuses(cfg.workers);
    std::vector<blobseer::simnet::SimScheduler::TaskId> tasks;
    for (size_t w = 0; w < cfg.workers; w++) {
      clients.push_back(cluster.NewClient());
      WorkloadSpec spec = cfg.spec;
      spec.seed += w;
      specs.push_back(spec);
      schedules.push_back(GenerateSchedule(spec));
      RunnerOptions ro;
      ro.window = cfg.window;
      ro.epoch_us = epoch;
      ro.timeline_bucket_us = 500 * 1000;
      runners.push_back(std::make_unique<WorkloadRunner>(
          clients[w].get(), &cluster.clock(), ro));
    }
    for (size_t w = 0; w < cfg.workers; w++) {
      uint32_t caller = sched.CurrentNode();
      sched.SetCurrentNode(cluster.client_node(w));
      tasks.push_back(sched.Spawn(
          [&, w] { statuses[w] = runners[w]->Run(specs[w], schedules[w]); }));
      sched.SetCurrentNode(caller);
    }
    for (auto id : tasks) sched.Join(id);

    st.verify_ok = true;
    for (size_t w = 0; w < cfg.workers; w++) {
      if (!statuses[w].ok()) {
        st.verify_ok = false;
        st.verify_error = statuses[w].ToString();
      }
      uint64_t checked = 0;
      Status vs = runners[w]->VerifyRetained(/*allow_not_found=*/false,
                                             &checked);
      if (!vs.ok() && st.verify_ok) {
        st.verify_ok = false;
        st.verify_error = vs.ToString();
      }
      st.retained_checked += checked;
      st.report.Merge(runners[w]->report());
      blobseer::stats::Add(&st.client, clients[w]->GetStats());
    }
    st.elapsed_s = double(cluster.clock().NowMicros() - epoch) / 1e6;
    st.store = cluster.TotalProviderUsage();
    blobseer::pmanager::ProviderManagerClient pm(&cluster.transport(),
                                                 cluster.pm_address());
    auto pm_stats = pm.FetchStatsAsync().Wait(&cluster.executor());
    if (pm_stats.ok()) {
      st.pm = *pm_stats;
      st.have_pm = true;
    }
  });

  doc.PutString("bench", "workload");
  doc.PutString("campaign", "mixed");
  doc.PutString("harness", "simnet");
  doc.PutBool("quick", cfg.quick);
  doc.PutObject("spec", SpecJson(cfg.spec));
  JsonObject cl;
  cl.PutU64("providers", cfg.sim_providers);
  cl.PutU64("replication", cfg.replication);
  cl.PutU64("write_quorum", cfg.write_quorum);
  cl.PutU64("workers", cfg.workers);
  cl.PutU64("window", cfg.window);
  doc.PutObject("cluster", cl);
  doc.PutObject("results", CampaignJson(st));
  JsonObject gates;
  bool mixed_pass = MixedGates(st, &gates);
  doc.PutObject("gates", gates);
  WriteJsonFile(cfg.json_prefix + "_mixed_simnet.json", doc);
  AddSummaryRow(summary, "mixed", "simnet", st, mixed_pass);
  if (!st.verify_ok) {
    fprintf(stderr, "verification failed: %s\n", st.verify_error.c_str());
  }
  pass = mixed_pass;
  return pass;
}

// ---------------------------------------------------------------------------
// 1000-provider chaos campaign on simnet: mixed zipfian traffic with a
// flash crowd, then mid-traffic a kill wave + decommission storm while the
// fabric latency triples (scripted congestion); the failure detector and
// rebuilder heal it and the campaign gates on zero incorrect reads plus
// time-to-restore-r (reported in the JSON).

bool RunScale(const DriverConfig& cfg, Table* summary) {
  printf("\n=== scale campaign · simnet · %zu providers · kill wave %zu · "
         "decommission %zu ===\n",
         cfg.scale_providers, cfg.kill_wave, cfg.decommission);

  WorkloadSpec spec;  // mixed + flash crowd, sized for the campaign
  spec.tenants = 4;
  spec.psize = 4096;
  spec.initial_pages = 2;
  spec.ops = cfg.quick ? 60 : 200;
  spec.read_fraction = 0.6;
  spec.zipf_theta = 0.9;
  spec.write_pages_max = 2;
  spec.read_pages_max = 2;
  spec.version_lag_max = 2;
  spec.flash_crowd_at = 0.55;  // lands during detection/rebuild
  spec.flash_crowd_ops = cfg.quick ? 16 : 64;

  const uint64_t hb_us = 2 * 1000 * 1000;
  const uint64_t suspect_us = 5 * 1000 * 1000;
  const uint64_t dead_us = 10 * 1000 * 1000;
  const uint64_t rebuild_us = 2 * 1000 * 1000;

  blobseer::simnet::SimScheduler sched;
  CampaignStats st;
  bool healed = false;
  double kill_at_s = -1;
  double restore_s = -1;
  uint64_t dead_seen = 0;
  uint64_t rebuilt_pages = 0;
  bool ran = false;

  sched.Run([&] {
    blobseer::core::SimClusterOptions so;
    so.num_provider_nodes = cfg.scale_providers;
    so.num_client_nodes = cfg.scale_workers;
    so.num_dht_nodes = cfg.scale_dht_nodes;
    so.page_store = "memory";
    so.replication = 3;
    so.write_quorum = 2;
    so.heartbeat_interval_us = hb_us;
    so.suspect_after_us = suspect_us;
    so.dead_after_us = dead_us;
    so.rebuild_interval_us = rebuild_us;
    so.rebuild_max_moves = 4096;
    blobseer::core::SimCluster cluster(&sched, so);

    const uint64_t epoch = cluster.clock().NowMicros();
    std::vector<std::unique_ptr<blobseer::client::BlobClient>> clients;
    std::vector<std::unique_ptr<WorkloadRunner>> runners;
    std::vector<WorkloadSpec> specs;
    std::vector<Schedule> schedules;
    std::vector<Status> statuses(cfg.scale_workers);
    uint64_t total_window_ops = 0;
    for (size_t w = 0; w < cfg.scale_workers; w++) {
      clients.push_back(cluster.NewClient());
      WorkloadSpec wspec = spec;
      wspec.seed += w;
      specs.push_back(wspec);
      schedules.push_back(GenerateSchedule(wspec));
      total_window_ops += WindowOpCount(schedules.back());
      RunnerOptions ro;
      ro.window = 16;
      ro.epoch_us = epoch;
      ro.timeline_bucket_us = 1000 * 1000;
      // Pace traffic so it spans the kill wave, the 10s detection window
      // and part of the rebuild — the flash crowd then lands while the
      // cluster is degraded instead of after everything has drained.
      ro.think_time_us = 150 * 1000;
      runners.push_back(std::make_unique<WorkloadRunner>(
          clients[w].get(), &cluster.clock(), ro));
    }

    std::vector<blobseer::simnet::SimScheduler::TaskId> tasks;
    for (size_t w = 0; w < cfg.scale_workers; w++) {
      uint32_t caller = sched.CurrentNode();
      sched.SetCurrentNode(cluster.client_node(w));
      tasks.push_back(sched.Spawn(
          [&, w] { statuses[w] = runners[w]->Run(specs[w], schedules[w]); }));
      sched.SetCurrentNode(caller);
    }

    // Chaos controller: waits for half the traffic, then kills a spread
    // wave + decommissions a few more providers while tripling the fabric
    // latency, and polls the provider manager until replication heals.
    auto progress = [&] {
      uint64_t done = 0;
      for (auto& r : runners) done += r->completed_ops();
      return done;
    };
    std::vector<size_t> victims;
    for (size_t i = 0; i < cfg.kill_wave; i++) {
      victims.push_back(i * cfg.scale_providers / cfg.kill_wave);
    }
    std::vector<size_t> drains;
    for (size_t i = 0; drains.size() < cfg.decommission; i++) {
      size_t candidate = cfg.scale_providers - 1 - i;
      bool is_victim = false;
      for (size_t v : victims) is_victim |= (v == candidate);
      if (!is_victim) drains.push_back(candidate);
    }
    uint32_t caller = sched.CurrentNode();
    sched.SetCurrentNode(cluster.pm_node());
    auto chaos = sched.Spawn([&] {
      while (progress() < total_window_ops / 2) {
        cluster.clock().SleepForMicros(100 * 1000);
      }
      const uint64_t kill_at = cluster.clock().NowMicros();
      kill_at_s = double(kill_at - epoch) / 1e6;
      const double base_latency = cluster.net().latency_us();
      cluster.net().set_latency_us(base_latency * 3);  // scripted congestion
      cluster.StopProviders(victims);
      for (size_t d : drains) cluster.Decommission(d);
      blobseer::pmanager::ProviderManagerClient pm(&cluster.transport(),
                                                   cluster.pm_address());
      const uint64_t deadline = kill_at + 600ull * 1000 * 1000;
      for (;;) {
        auto stats = pm.FetchStatsAsync().Wait(&cluster.executor());
        bool drained = true;
        for (size_t d : drains) {
          auto dr = cluster.Decommission(d);  // idempotent drain poll
          drained &= dr.ok() && dr->drained;
        }
        if (stats.ok()) {
          dead_seen = stats->dead;
          rebuilt_pages = stats->rebuilt_pages;
          if (stats->dead >= victims.size() && stats->under_replicated == 0 &&
              drained) {
            healed = true;
            restore_s =
                double(cluster.clock().NowMicros() - kill_at) / 1e6;
            break;
          }
        }
        if (cluster.clock().NowMicros() > deadline) break;
        cluster.clock().SleepForMicros(rebuild_us);
      }
      cluster.net().set_latency_us(base_latency);  // congestion clears
    });
    sched.SetCurrentNode(caller);

    for (auto id : tasks) sched.Join(id);
    sched.Join(chaos);

    st.verify_ok = true;
    for (size_t w = 0; w < cfg.scale_workers; w++) {
      if (!statuses[w].ok()) {
        st.verify_ok = false;
        st.verify_error = statuses[w].ToString();
      }
      uint64_t checked = 0;
      // Post-chaos: NotFound is clean, wrong bytes are not.
      Status vs =
          runners[w]->VerifyRetained(/*allow_not_found=*/true, &checked);
      if (!vs.ok() && st.verify_ok) {
        st.verify_ok = false;
        st.verify_error = vs.ToString();
      }
      st.retained_checked += checked;
      st.report.Merge(runners[w]->report());
      blobseer::stats::Add(&st.client, clients[w]->GetStats());
    }
    st.elapsed_s = double(cluster.clock().NowMicros() - epoch) / 1e6;
    st.store = cluster.TotalProviderUsage();
    blobseer::pmanager::ProviderManagerClient pm(&cluster.transport(),
                                                 cluster.pm_address());
    auto pm_stats = pm.FetchStatsAsync().Wait(&cluster.executor());
    if (pm_stats.ok()) {
      st.pm = *pm_stats;
      st.have_pm = true;
    }
    ran = true;
  });

  const WorkloadReport& r = st.report;
  bool zero_incorrect = r.verify_failures == 0 && r.read_errors == 0;
  bool pass = ran && healed && zero_incorrect && st.verify_ok;

  JsonObject doc;
  doc.PutString("bench", "workload");
  doc.PutString("campaign", StrFormat("scale%zu", cfg.scale_providers));
  doc.PutString("harness", "simnet");
  doc.PutBool("quick", cfg.quick);
  doc.PutObject("spec", SpecJson(spec));
  JsonObject cl;
  cl.PutU64("providers", cfg.scale_providers);
  cl.PutU64("dht_nodes", cfg.scale_dht_nodes);
  cl.PutU64("replication", 3);
  cl.PutU64("write_quorum", 2);
  cl.PutU64("workers", cfg.scale_workers);
  cl.PutU64("heartbeat_interval_us", hb_us);
  cl.PutU64("suspect_after_us", suspect_us);
  cl.PutU64("dead_after_us", dead_us);
  cl.PutU64("rebuild_interval_us", rebuild_us);
  doc.PutObject("cluster", cl);
  doc.PutObject("results", CampaignJson(st));
  JsonObject chaos;
  chaos.PutU64("kill_wave", cfg.kill_wave);
  chaos.PutU64("decommissioned", cfg.decommission);
  chaos.PutDouble("kill_at_s", kill_at_s);
  chaos.PutDouble("time_to_restore_s", restore_s);
  chaos.PutBool("healed", healed);
  chaos.PutU64("dead_detected", dead_seen);
  chaos.PutU64("rebuilt_pages", rebuilt_pages);
  doc.PutObject("chaos", chaos);
  JsonObject gates;
  gates.PutBool("healed", healed);
  gates.PutBool("zero_incorrect_reads", zero_incorrect);
  gates.PutBool("retained_verified", st.verify_ok);
  gates.PutBool("pass", pass);
  doc.PutObject("gates", gates);
  WriteJsonFile(cfg.json_prefix +
                    StrFormat("_scale%zu.json", cfg.scale_providers),
                doc);

  printf("  kill at %.2fs (virtual), %s, time-to-restore-r %.2fs, "
         "%" PRIu64 " rebuilt pages, %" PRIu64 " write errors during chaos\n",
         kill_at_s, healed ? "healed" : "NOT HEALED", restore_s,
         rebuilt_pages, r.write_errors);
  AddSummaryRow(summary, StrFormat("scale%zu", cfg.scale_providers), "simnet",
                st, pass);
  if (!st.verify_ok) {
    fprintf(stderr, "verification failed: %s\n", st.verify_error.c_str());
  }
  return pass;
}

void ShrinkForQuick(WorkloadSpec* spec) {
  spec->ops = std::min<uint64_t>(spec->ops, 64);
  spec->tenants = std::min<uint64_t>(spec->tenants, 4);
  spec->initial_pages = std::min<uint64_t>(spec->initial_pages, 8);
  spec->read_pages_max = std::min<uint64_t>(spec->read_pages_max, 4);
  spec->read_pages_min = std::min(spec->read_pages_min, spec->read_pages_max);
  spec->write_pages_max = std::min<uint64_t>(spec->write_pages_max, 4);
  spec->write_pages_min =
      std::min(spec->write_pages_min, spec->write_pages_max);
  spec->flash_crowd_ops = std::min<uint64_t>(spec->flash_crowd_ops, 16);
  spec->arrivals = std::min<uint64_t>(spec->arrivals, 2);
  spec->departures = std::min<uint64_t>(spec->departures, 2);
}

}  // namespace

int main(int argc, char** argv) {
  DriverConfig cfg;
  cfg.quick = QuickMode(argc, argv);
  std::string harness = FlagValue(argc, argv, "harness", "all");
  std::string campaign = FlagValue(argc, argv, "campaign", "all");
  std::string scenario = FlagValue(argc, argv, "scenario", "mixed");
  std::string spec_file = FlagValue(argc, argv, "spec", "");
  cfg.json_prefix =
      FlagValue(argc, argv, "json-prefix", cfg.json_prefix);

  // Spec resolution order: preset (or .wl file) -> quick sizing -> --wl:
  // overrides, so explicit overrides always win.
  blobseer::Result<WorkloadSpec> spec =
      spec_file.empty() ? WorkloadSpec::Preset(scenario)
                        : WorkloadSpec::ParseFile(spec_file);
  if (!spec.ok()) {
    fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return 1;
  }
  cfg.spec = *spec;
  if (cfg.quick) ShrinkForQuick(&cfg.spec);
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg.rfind("--wl:", 0) != 0) continue;
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      fprintf(stderr, "expected --wl:key=value, got %s\n", arg.c_str());
      return 1;
    }
    Status s = cfg.spec.Set(arg.substr(5, eq - 5), arg.substr(eq + 1));
    if (!s.ok()) {
      fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  Status valid = cfg.spec.Validate();
  if (!valid.ok()) {
    fprintf(stderr, "%s\n", valid.ToString().c_str());
    return 1;
  }

  cfg.workers = FlagU64(argc, argv, "workers", cfg.quick ? 2 : 4);
  cfg.providers = FlagU64(argc, argv, "providers", cfg.quick ? 4 : 6);
  cfg.sim_providers = FlagU64(argc, argv, "sim-providers", 50);
  cfg.replication =
      uint32_t(FlagU64(argc, argv, "replication", cfg.replication));
  cfg.write_quorum =
      uint32_t(FlagU64(argc, argv, "write-quorum", cfg.write_quorum));
  cfg.window = FlagU64(argc, argv, "window", cfg.window);
  cfg.scale_providers =
      FlagU64(argc, argv, "scale-providers", cfg.scale_providers);
  cfg.scale_workers = FlagU64(argc, argv, "scale-workers", cfg.scale_workers);
  cfg.scale_dht_nodes =
      FlagU64(argc, argv, "scale-dht-nodes", cfg.scale_dht_nodes);
  cfg.kill_wave =
      FlagU64(argc, argv, "kill-wave", cfg.quick ? 20 : cfg.kill_wave * 2);
  cfg.decommission = FlagU64(argc, argv, "decommission", cfg.decommission);

  printf("workload driver · scenario=%s%s · campaign=%s · harness=%s\n",
         cfg.spec.scenario.c_str(), cfg.quick ? " (quick)" : "",
         campaign.c_str(), harness.c_str());
  printf("schedule fingerprint: %016" PRIx64 "\n",
         GenerateSchedule(cfg.spec).Fingerprint());

  Table summary({"campaign", "harness", "window ops", "p99 read us",
                 "p99 write us", "errors", "pass"});
  bool all_pass = true;
  const bool run_mixed = campaign == "all" || campaign == "mixed";
  const bool run_scale = campaign == "all" || campaign == "scale";
  if (run_mixed && (harness == "all" || harness == "embedded")) {
    all_pass &= RunRealMixed(cfg, "embedded", &summary);
  }
  if (run_mixed && (harness == "all" || harness == "tcp")) {
    all_pass &= RunRealMixed(cfg, "tcp", &summary);
  }
  if (run_mixed && (harness == "all" || harness == "simnet")) {
    all_pass &= RunSimMixed(cfg, &summary);
  }
  if (run_scale) {
    all_pass &= RunScale(cfg, &summary);
  }

  printf("\n");
  summary.Print();
  printf("\nworkload driver: %s\n", all_pass ? "PASS" : "FAIL");
  return all_pass ? 0 : 1;
}
