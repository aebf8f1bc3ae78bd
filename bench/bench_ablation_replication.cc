// A6 — ablation: page replication factor and write quorum sweep over the
// fig-2a append workload plus a sequential read-back, a kill-mid-sweep
// degraded *write* pass and a degraded read pass.
//
// The paper's evaluation ran unreplicated RAM providers; production keeps
// data available under churn by storing each page on r distinct providers
// (section 3.1) and acking writes at w of r (ClientOptions::write_quorum,
// docs/liveness.md). Writes pay r transfers per page, so one question is
// how much of the fan-out the async pipeline hides; the other is write
// availability: mid-sweep a provider is killed (and stays in the
// allocation rotation — the failure detector is off here, the worst case)
// and the sweep keeps appending. A separate churn pass runs the full
// self-healing stack (heartbeats + rebuilder): kill mid-sweep, measure the
// time until replication is restored on the survivors and the degraded-read
// rate before/after the heal. The exit code enforces the headlines:
// r=2/w=2 append throughput stays within budget of r=1, degraded reads
// succeed at r >= 2, degraded writes SUCCEED at w < r (they fail by design
// at w = r — the chaos suite regression-gates that side), and the churn
// pass restores r with zero failovers afterwards.
#include <cinttypes>

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "core/cluster.h"
#include "pmanager/client.h"

using namespace blobseer;

namespace {

struct SweepResult {
  double append_mbps = 0;
  double read_mbps = 0;
  double degraded_write_mbps = 0;  // appends after the mid-sweep kill
  bool degraded_write_ok = false;  // every post-kill append succeeded
  bool degraded_write_ran = false;
  double degraded_read_mbps = 0;
  uint64_t failover_reads = 0;
  uint64_t degraded_writes = 0;  // pages acked below a full replica set
};

SweepResult RunSweep(uint32_t replication, uint32_t quorum, uint64_t psize,
                     uint64_t total, uint64_t append_bytes) {
  SweepResult res;
  core::ClusterOptions opts;
  opts.num_providers = 6;
  opts.num_meta = 4;
  opts.replication = replication;
  opts.write_quorum = quorum;
  auto cluster = core::EmbeddedCluster::Start(opts);
  if (!cluster.ok()) return res;
  auto client = (*cluster)->NewClient();
  if (!client.ok()) return res;
  auto id = (*client)->Create(psize);
  if (!id.ok()) return res;

  std::string chunk(append_bytes, 'r');
  Stopwatch timer;
  Version last = 0;
  for (uint64_t appended = 0; appended < total; appended += append_bytes) {
    auto v = (*client)->Append(*id, Slice(chunk));
    if (!v.ok()) {
      fprintf(stderr, "append failed (r=%u w=%u): %s\n", replication, quorum,
              v.status().ToString().c_str());
      return res;
    }
    last = *v;
  }
  res.append_mbps =
      static_cast<double>(total) / (1 << 20) / timer.ElapsedSeconds();
  if (!(*client)->Sync(*id, last).ok()) return res;

  auto read_pass = [&](uint64_t upto) -> double {
    Stopwatch read_timer;
    std::string out;
    for (uint64_t off = 0; off < upto; off += append_bytes) {
      if (!(*client)->Read(*id, last, off, append_bytes, &out).ok()) return -1;
    }
    return static_cast<double>(upto) / (1 << 20) / read_timer.ElapsedSeconds();
  };
  res.read_mbps = read_pass(total);

  if (replication >= 2) {
    // Kill mid-sweep, then keep appending. The dead provider stays in the
    // rotation (no heartbeats here), so at w=r these appends fail by
    // design; at w < r the quorum must absorb every failed replica put.
    if (!(*cluster)->StopProvider(0).ok()) return res;
    res.degraded_write_ran = true;
    res.degraded_write_ok = true;
    Stopwatch degraded;
    uint64_t written = 0;
    for (uint64_t n = 0; n < total; n += append_bytes) {
      auto v = (*client)->Append(*id, Slice(chunk));
      if (!v.ok()) {
        res.degraded_write_ok = false;
        break;
      }
      last = *v;
      written += append_bytes;
    }
    if (res.degraded_write_ok && (*client)->Sync(*id, last).ok()) {
      res.degraded_write_mbps = static_cast<double>(written) / (1 << 20) /
                                degraded.ElapsedSeconds();
    }
    // Degraded reads: any single provider death must be absorbed by
    // failover to the surviving replicas (of the healthy-phase data).
    res.degraded_read_mbps = read_pass(total);
    res.failover_reads = (*client)->GetStats().failover_reads;
    res.degraded_writes = (*client)->GetStats().degraded_writes;
  }
  return res;
}

struct ChurnResult {
  bool ran = false;
  bool healed = false;        // r restored on the survivors within deadline
  double restore_seconds = 0; // kill -> under_replicated == 0
  uint64_t rebuilt_pages = 0;
  double during_read_mbps = 0;  // read pass right after the kill
  double after_read_mbps = 0;   // read pass after the heal, fresh client
  uint64_t during_failovers = 0;
  uint64_t after_failovers = 0;
  double during_rate = 0;  // failovers per page fetched
  double after_rate = 0;
};

// The sweeps above run with the detector off; this pass runs the full
// self-healing stack (heartbeats + background rebuilder), kills a provider
// mid-sweep and times how long until replication is back to r=3 on the
// survivors. Reads right after the kill quantify the degraded window
// (stale location entries fail over to survivors); a fresh client after
// the heal must see zero failovers.
ChurnResult RunChurnPass(uint64_t psize, uint64_t total,
                         uint64_t append_bytes) {
  ChurnResult res;
  core::ClusterOptions opts;
  opts.num_providers = 6;
  opts.num_meta = 4;
  opts.replication = 3;
  opts.write_quorum = 2;
  opts.heartbeat_interval_us = 10 * 1000;
  opts.suspect_after_us = 80 * 1000;
  opts.dead_after_us = 200 * 1000;
  opts.rebuild_interval_us = 20 * 1000;
  opts.rebuild_max_moves = 512;
  auto cluster = core::EmbeddedCluster::Start(opts);
  if (!cluster.ok()) return res;
  auto client = (*cluster)->NewClient();
  if (!client.ok()) return res;
  auto id = (*client)->Create(psize);
  if (!id.ok()) return res;

  std::string chunk(append_bytes, 'c');
  Version last = 0;
  uint64_t appended = 0;
  auto append_until = [&](uint64_t target) -> bool {
    for (; appended < target; appended += append_bytes) {
      auto v = (*client)->Append(*id, Slice(chunk));
      if (!v.ok()) {
        fprintf(stderr, "churn append failed: %s\n",
                v.status().ToString().c_str());
        return false;
      }
      last = *v;
    }
    return true;
  };
  if (!append_until(total / 2)) return res;
  res.ran = true;

  const ProviderId victim = (*cluster)->provider_id(0);
  Stopwatch restore;
  if (!(*cluster)->StopProvider(0).ok()) return res;
  // Keep appending through the kill: the w=2-of-3 quorum absorbs the
  // corpse until the detector drops it from the allocation rotation.
  if (!append_until(total)) return res;
  if (!(*client)->Sync(*id, last).ok()) return res;

  auto read_pass = [&](double* mbps, uint64_t* failovers) -> bool {
    auto reader = (*cluster)->NewClient();
    if (!reader.ok()) return false;
    Stopwatch t;
    std::string out;
    for (uint64_t off = 0; off < total; off += append_bytes) {
      if (!(*reader)->Read(*id, last, off, append_bytes, &out).ok())
        return false;
    }
    *mbps = static_cast<double>(total) / (1 << 20) / t.ElapsedSeconds();
    *failovers = (*reader)->GetStats().failover_reads;
    return true;
  };
  if (!read_pass(&res.during_read_mbps, &res.during_failovers)) return res;

  pmanager::ProviderManagerClient pm((*cluster)->transport(),
                                     (*cluster)->pmanager_address());
  auto* table = (*cluster)->pmanager().location_table();
  while (restore.ElapsedSeconds() < 60.0 && !res.healed) {
    auto st = pm.FetchStatsAsync().Wait();
    if (!st.ok()) return res;
    res.rebuilt_pages = st->rebuilt_pages;
    res.healed = st->dead >= 1 && st->under_replicated == 0 &&
                 table->CountOn(victim) == 0;
    if (!res.healed) RealClock::Default()->SleepForMicros(10 * 1000);
  }
  res.restore_seconds = restore.ElapsedSeconds();
  if (!res.healed) return res;
  if (!read_pass(&res.after_read_mbps, &res.after_failovers)) return res;

  const double pieces = static_cast<double>(total) / psize;
  res.during_rate = static_cast<double>(res.during_failovers) / pieces;
  res.after_rate = static_cast<double>(res.after_failovers) / pieces;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  const uint64_t psize = bench::FlagU64(argc, argv, "psize_kb", 64) * 1024;
  const uint64_t total_mb =
      bench::FlagU64(argc, argv, "total_mb", quick ? 4 : 32);
  const uint64_t append_kb = bench::FlagU64(argc, argv, "append_kb", 512);

  printf("== Ablation A6: replication factor x write quorum sweep ==\n");
  printf("   (6 providers, in-process transport; 1 client appends %" PRIu64
         " MB in %" PRIu64 " KB chunks, %" PRIu64
         " KB pages; degraded passes kill provider 0 mid-sweep and keep "
         "appending)\n\n",
         total_mb, append_kb, psize >> 10);

  struct Config {
    uint32_t r, w;
  };
  const Config kConfigs[] = {{1, 1}, {2, 2}, {2, 1}, {3, 3}, {3, 2}};

  bench::Table table({"r", "w", "append MB/s", "read MB/s",
                      "degraded write MB/s", "degraded read MB/s",
                      "failover reads", "short-quorum pages"});
  double r1_append = 0, r2_append = 0;
  bool degraded_reads_ok = true;
  bool degraded_writes_ok = true;
  bench::JsonObject sweep_json;
  for (const Config& cfg : kConfigs) {
    SweepResult res =
        RunSweep(cfg.r, cfg.w, psize, total_mb << 20, append_kb << 10);
    bench::JsonObject row;
    row.PutU64("r", cfg.r);
    row.PutU64("w", cfg.w);
    row.PutDouble("append_mbps", res.append_mbps);
    row.PutDouble("read_mbps", res.read_mbps);
    if (res.degraded_write_ran) {
      row.PutBool("degraded_write_ok", res.degraded_write_ok);
      row.PutDouble("degraded_write_mbps", res.degraded_write_mbps);
      row.PutDouble("degraded_read_mbps", res.degraded_read_mbps);
      row.PutU64("failover_reads", res.failover_reads);
      row.PutU64("short_quorum_pages", res.degraded_writes);
    }
    sweep_json.PutObject(StrFormat("r%u_w%u", cfg.r, cfg.w), row);
    if (cfg.r == 1 && cfg.w == 1) r1_append = res.append_mbps;
    if (cfg.r == 2 && cfg.w == 2) r2_append = res.append_mbps;
    if (cfg.r >= 2 && res.degraded_read_mbps <= 0) degraded_reads_ok = false;
    if (res.degraded_write_ran && cfg.w < cfg.r && !res.degraded_write_ok)
      degraded_writes_ok = false;
    std::string degraded_write_cell = "-";
    if (res.degraded_write_ran) {
      degraded_write_cell = res.degraded_write_ok
                                ? StrFormat("%.1f", res.degraded_write_mbps)
                                : std::string("fail");
    }
    table.AddRow({std::to_string(cfg.r), std::to_string(cfg.w),
                  StrFormat("%.1f", res.append_mbps),
                  StrFormat("%.1f", res.read_mbps), degraded_write_cell,
                  cfg.r >= 2 ? StrFormat("%.1f", res.degraded_read_mbps) : "-",
                  cfg.r >= 2 ? std::to_string(res.failover_reads) : "-",
                  cfg.r >= 2 ? std::to_string(res.degraded_writes) : "-"});
  }
  table.Print();

  printf("\n== Churn pass: kill mid-sweep with self-healing on ==\n");
  printf("   (r=3 w=2, heartbeats 10ms / dead 200ms / rebuild 20ms; kill "
         "provider 0 at half-sweep, keep appending, read degraded, wait for "
         "the rebuilder, read again)\n\n");
  ChurnResult churn = RunChurnPass(psize, total_mb << 20, append_kb << 10);
  const bool churn_ok =
      churn.ran && churn.healed && churn.after_failovers == 0;
  if (churn.ran) {
    printf("  time-to-restore-r:    %s\n",
           churn.healed ? StrFormat("%.2f s (%" PRIu64 " pages rebuilt)",
                                    churn.restore_seconds,
                                    churn.rebuilt_pages)
                              .c_str()
                        : "NOT RESTORED within 60 s");
    printf("  degraded reads:       %.1f MB/s, %" PRIu64
           " failovers (%.3f per page)\n",
           churn.during_read_mbps, churn.during_failovers, churn.during_rate);
    printf("  post-heal reads:      %.1f MB/s, %" PRIu64
           " failovers (%.3f per page)\n",
           churn.after_read_mbps, churn.after_failovers, churn.after_rate);
  } else {
    printf("  churn pass failed to run\n");
  }

  // Under parallel ctest load (smoke mode) the fsync-free inproc numbers
  // get noisy; the quick gate carries headroom, the full run stays strict.
  const double budget = quick ? 3.5 : 2.5;
  const bool write_cost_ok =
      r1_append > 0 && r2_append > 0 && r2_append * budget >= r1_append;
  printf("\nshape checks:\n");
  printf("  r=2/w=2 append within %.1fx of r=1: %.2fx slower %s\n", budget,
         r2_append > 0 ? r1_append / r2_append : 0.0,
         write_cost_ok ? "[ok]" : "[REGRESSION]");
  printf("  degraded reads (one provider down) succeed at r>=2: %s\n",
         degraded_reads_ok ? "[ok]" : "[REGRESSION]");
  printf("  degraded writes (kill mid-sweep) succeed at w<r: %s\n",
         degraded_writes_ok ? "[ok]" : "[REGRESSION]");
  printf("  churn pass restores r=3, post-heal reads clean: %s\n",
         churn_ok ? "[ok]" : "[REGRESSION]");
  printf("  (w=r degraded writes fail by design; chaos_test gates that "
         "side)\n");

  bench::JsonObject config;
  config.PutU64("psize", psize);
  config.PutU64("total_mb", total_mb);
  config.PutU64("append_kb", append_kb);
  bench::JsonObject churn_json;
  churn_json.PutBool("ran", churn.ran);
  churn_json.PutBool("healed", churn.healed);
  churn_json.PutDouble("time_to_restore_s", churn.restore_seconds);
  churn_json.PutU64("rebuilt_pages", churn.rebuilt_pages);
  churn_json.PutDouble("degraded_read_mbps", churn.during_read_mbps);
  churn_json.PutDouble("post_heal_read_mbps", churn.after_read_mbps);
  churn_json.PutU64("degraded_failovers", churn.during_failovers);
  churn_json.PutU64("post_heal_failovers", churn.after_failovers);
  bench::JsonObject gates;
  gates.PutDouble("r2w2_slowdown_vs_r1",
                  r2_append > 0 ? r1_append / r2_append : 0.0);
  gates.PutDouble("gate_max_slowdown", budget);
  gates.PutBool("write_cost_ok", write_cost_ok);
  gates.PutBool("degraded_reads_ok", degraded_reads_ok);
  gates.PutBool("degraded_writes_ok", degraded_writes_ok);
  gates.PutBool("churn_ok", churn_ok);
  bench::JsonObject doc;
  doc.PutString("bench", "ablation_replication");
  doc.PutBool("quick", quick);
  doc.PutObject("config", config);
  doc.PutObject("sweep", sweep_json);
  doc.PutObject("churn", churn_json);
  doc.PutObject("gates", gates);
  const std::string json_path =
      bench::FlagValue(argc, argv, "json", "BENCH_replication.json");
  if (!bench::WriteJsonFile(json_path, doc)) return 1;

  return write_cost_ok && degraded_reads_ok && degraded_writes_ok && churn_ok
             ? 0
             : 1;
}
