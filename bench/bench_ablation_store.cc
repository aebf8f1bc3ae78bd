// A5 — ablation: page-store backend sweep (memory vs. log-structured) over
// the fig-2a append workload.
//
// The paper's providers served immutable pages from RAM (the memory
// engine); a production deployment needs durability. This bench quantifies
// what the durable backend costs:
//   * log:   append-only segments with leader-based group commit — many
//            concurrent Puts share one fdatasync per flush window.
//   * log-nosync: the same store with the durability window open (syncs
//            only on segment seal), an upper bound for the log layout.
//
// Three sweeps: raw store-level Put throughput with concurrent writers
// (where group commit shows up), a raw-I/O backend x iodepth sweep of the
// log store (psync pwrite/fdatasync vs. batched io_uring submissions, the
// fig-2a append shape driven at increasing queue depth, plus paired
// psync/uring-direct gate rows), then the full BlobSeer stack appending a
// blob through an embedded cluster with each backend configured, the same
// workload shape as bench_fig2a_append measured in wall-clock time.
//
// `--probe-io-uring` prints whether this kernel supports io_uring and
// exits (0 = available, 3 = not) — CI uses it to decide whether to run the
// test suites with BLOBSEER_IO_BACKEND=uring.
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "core/cluster.h"
#include "pagelog/io_backend.h"
#include "pagelog/log_page_store.h"
#include "provider/page_store.h"

using namespace blobseer;

namespace {

struct StoreResult {
  double mbps = 0;
  double puts_per_sec = 0;
  provider::PageStoreStats stats;
};

/// `backend` is "memory" or "log[-nosync][:IO]" where IO selects
/// the raw-I/O backend ("psync", "uring", "uring-direct"). Bare "log" rows
/// pin psync explicitly so the baseline is stable regardless of the
/// BLOBSEER_IO_BACKEND environment.
std::unique_ptr<provider::PageStore> MakeBackend(const std::string& backend,
                                                 const std::string& dir) {
  if (backend == "memory") return provider::MakeMemoryPageStore();
  std::string log = backend;
  pagelog::LogPageStoreOptions opts;
  opts.io_backend = "psync";
  size_t colon = log.find(':');
  if (colon != std::string::npos) {
    opts.io_backend = log.substr(colon + 1);
    log = log.substr(0, colon);
  }
  if (log == "log-nosync") opts.sync = false;
  return pagelog::MakeLogPageStore(dir, opts);
}

/// W concurrent writers each Put `pages_per_writer` pages of `psize` bytes.
StoreResult RunStoreSweep(const std::string& backend, const std::string& dir,
                          size_t writers, uint64_t pages_per_writer,
                          uint64_t psize) {
  std::filesystem::remove_all(dir);
  auto store = MakeBackend(backend, dir);
  std::string payload(psize, 'p');

  Stopwatch timer;
  std::vector<std::thread> threads;
  for (size_t w = 0; w < writers; w++) {
    threads.emplace_back([&, w] {
      for (uint64_t i = 0; i < pages_per_writer; i++) {
        PageId id{w + 1, i};
        Status s = store->Put(id, Slice(payload));
        if (!s.ok()) {
          fprintf(stderr, "put failed (%s): %s\n", backend.c_str(),
                  s.ToString().c_str());
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  double secs = timer.ElapsedSeconds();

  StoreResult r;
  uint64_t total_pages = writers * pages_per_writer;
  r.mbps = static_cast<double>(total_pages * psize) / (1 << 20) / secs;
  r.puts_per_sec = static_cast<double>(total_pages) / secs;
  r.stats = store->GetStats();
  store.reset();
  std::filesystem::remove_all(dir);
  return r;
}

/// Full-stack fig-2a shape: one client appends `total` bytes in
/// `append_bytes` chunks into a fresh blob on a cluster whose providers run
/// `page_store` (with `io_backend` selecting the raw-I/O path of "log:"
/// stores); returns wall-clock append MB/s.
double RunClusterAppend(const std::string& page_store, uint64_t psize,
                        uint64_t total, uint64_t append_bytes,
                        const std::string& io_backend = "psync") {
  core::ClusterOptions opts;
  opts.num_providers = 4;
  opts.num_meta = 4;
  opts.page_store = page_store;
  opts.io_backend = io_backend;
  auto cluster = core::EmbeddedCluster::Start(opts);
  if (!cluster.ok()) return -1;
  auto client = (*cluster)->NewClient();
  if (!client.ok()) return -1;
  auto id = (*client)->Create(psize);
  if (!id.ok()) return -1;

  std::string chunk(append_bytes, 'a');
  Stopwatch timer;
  for (uint64_t appended = 0; appended < total; appended += append_bytes) {
    auto v = (*client)->Append(*id, Slice(chunk));
    if (!v.ok()) {
      fprintf(stderr, "append failed: %s\n", v.status().ToString().c_str());
      return -1;
    }
  }
  return static_cast<double>(total) / (1 << 20) / timer.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    if (std::string(argv[i]) == "--probe-io-uring") {
      bool avail = pagelog::IoUringSupported();
      printf("io_uring: %s\n", avail ? "available" : "unavailable");
      return avail ? 0 : 3;
    }
  }
  const bool quick = bench::QuickMode(argc, argv);
  const uint64_t psize = bench::FlagU64(argc, argv, "psize_kb", 64) * 1024;
  const size_t writers = bench::FlagU64(argc, argv, "writers", 4);
  const uint64_t pages_per_writer =
      bench::FlagU64(argc, argv, "pages_per_writer", quick ? 48 : 256);
  const uint64_t total_mb =
      bench::FlagU64(argc, argv, "total_mb", quick ? 4 : 32);
  const uint64_t append_kb = bench::FlagU64(argc, argv, "append_kb", 1024);

  std::string root =
      (std::filesystem::temp_directory_path() /
       StrFormat("bs_ablation_store_%d", static_cast<int>(::getpid())))
          .string();

  printf("== Ablation A5: page-store backend sweep ==\n");
  printf("   (%zu writers x %" PRIu64 " pages of %" PRIu64
         " KB; store dir %s)\n\n",
         writers, pages_per_writer, psize >> 10, root.c_str());

  const std::vector<std::string> backends = {"memory", "log", "log-nosync"};
  bench::Table store_table({"backend", "put MB/s", "puts/s", "syncs",
                            "segments", "dead bytes"});
  bench::JsonObject store_json;
  for (const auto& b : backends) {
    StoreResult r =
        RunStoreSweep(b, root + "/" + b, writers, pages_per_writer, psize);
    store_table.AddRow({b, StrFormat("%.1f", r.mbps),
                        StrFormat("%.0f", r.puts_per_sec),
                        std::to_string(r.stats.syncs),
                        std::to_string(r.stats.segments),
                        std::to_string(r.stats.dead_bytes)});
    bench::JsonObject row;
    row.PutDouble("put_mbps", r.mbps);
    row.PutDouble("puts_per_sec", r.puts_per_sec);
    row.PutU64("syncs", r.stats.syncs);
    row.PutU64("segments", r.stats.segments);
    row.PutU64("dead_bytes", r.stats.dead_bytes);
    store_json.PutObject(b, row);
  }
  store_table.Print();

  // -------------------------------------------------------------------------
  // Raw-I/O backend x iodepth sweep: the fig-2a append shape driven at
  // increasing queue depth through the log store's psync and uring
  // backends. Each row appears twice: sync=true (every Put group-commit
  // durable — both backends are fdatasync-bound at the device, so the
  // ratio mostly shows submission batching shaving the per-record pwrites)
  // and sync=false (the paper's RAM-provider throughput mode with the
  // durability window open — here uring's staged appends replace two
  // pwrite syscalls per record with a memcpy). Records default to 512
  // bytes: small records are where the per-record syscall tax dominates
  // and the batching seam has something to batch; at page-cache-bandwidth
  // record sizes every backend converges on the device writeback rate.
  // -------------------------------------------------------------------------
  const uint64_t io_psize = bench::FlagU64(argc, argv, "io_psize", 512);
  const uint64_t io_pages =
      bench::FlagU64(argc, argv, "io_pages_per_writer", quick ? 64 : 2048);
  const bool uring_avail = pagelog::IoUringSupported();
  std::vector<size_t> iodepths =
      quick ? std::vector<size_t>{1, 8} : std::vector<size_t>{1, 4, 8, 16, 32};

  printf("\n== Raw-I/O backend sweep (fig-2a append at increasing iodepth, "
         "%" PRIu64 " B records, %" PRIu64 " pages/writer) ==\n",
         io_psize, io_pages);
  if (!uring_avail)
    printf("   (io_uring unavailable on this kernel: psync rows only)\n");
  printf("\n");

  std::vector<std::string> io_backends = {"psync"};
  if (uring_avail) {
    io_backends.push_back("uring");
    io_backends.push_back("uring-direct");
  }
  bench::Table io_table({"backend", "iodepth", "sync", "put MB/s", "puts/s",
                         "submissions", "sqes"});
  bench::JsonObject io_json;
  for (size_t depth : iodepths) {
    for (bool sync : {true, false}) {
      double psync_mbps = 0;
      for (const auto& io : io_backends) {
        std::string spec = (sync ? "log:" : "log-nosync:") + io;
        StoreResult r = RunStoreSweep(spec, root + "/iosweep", depth,
                                      io_pages, io_psize);
        if (io == "psync") psync_mbps = r.mbps;
        io_table.AddRow({io, std::to_string(depth), sync ? "y" : "n",
                         StrFormat("%.1f", r.mbps),
                         StrFormat("%.0f", r.puts_per_sec),
                         std::to_string(r.stats.io_submissions),
                         std::to_string(r.stats.io_sqes)});
        bench::JsonObject row;
        row.PutString("io_backend", io);
        row.PutU64("iodepth", depth);
        row.PutBool("sync", sync);
        row.PutDouble("put_mbps", r.mbps);
        row.PutDouble("puts_per_sec", r.puts_per_sec);
        row.PutU64("io_submissions", r.stats.io_submissions);
        row.PutU64("io_sqes", r.stats.io_sqes);
        row.PutU64("bytes_written", r.stats.bytes_written);
        row.PutU64("syncs", r.stats.syncs);
        if (io != "psync" && psync_mbps > 0)
          row.PutDouble("vs_psync", r.mbps / psync_mbps);
        io_json.PutObject(StrFormat("%s-d%zu-%s", io.c_str(), depth,
                                    sync ? "sync" : "nosync"),
                          row);
      }
    }
  }
  io_table.Print();

  // Gate: uring-direct must beat psync by >= 1.2x on open-window appends
  // once the driver keeps >= 8 appends in flight. Device throughput on a
  // shared VM swings by 2-3x over seconds (writeback backlog, noisy
  // neighbours), so a ratio of rows measured minutes apart is noise: each
  // comparison here runs the two backends back to back on the same
  // workload — sync() between them drains the psync row's dirty pages so
  // the O_DIRECT row is not competing with its predecessor's writeback —
  // and each depth takes the median of three such pairs. Quick/smoke runs
  // skip the gate (a 64-page run is noise-dominated), and kernels without
  // io_uring skip it too (fallback correctness is covered by the tests).
  const double io_gate_floor = 1.2;
  const uint64_t io_gate_puts =
      bench::FlagU64(argc, argv, "io_gate_puts", 256 * 1024);
  const bool io_gated = !quick && uring_avail;
  double io_gate_min_ratio = -1;
  bench::JsonObject io_gate_json;
  if (io_gated) {
    printf("\nperf gate: paired psync / uring-direct rows (sync=n, "
           "%" PRIu64 " B records, %" PRIu64 " puts/row):\n",
           io_psize, io_gate_puts);
    for (size_t depth : {8, 16, 32}) {
      uint64_t per_writer = io_gate_puts / depth;
      std::vector<double> ratios;
      bench::JsonObject depth_json;
      for (int rep = 0; rep < 3; rep++) {
        StoreResult p = RunStoreSweep("log-nosync:psync", root + "/iogate",
                                      depth, per_writer, io_psize);
        ::sync();
        StoreResult u = RunStoreSweep("log-nosync:uring-direct",
                                      root + "/iogate", depth, per_writer,
                                      io_psize);
        double ratio = p.mbps > 0 ? u.mbps / p.mbps : 0;
        ratios.push_back(ratio);
        bench::JsonObject pair;
        pair.PutDouble("psync_mbps", p.mbps);
        pair.PutDouble("uring_direct_mbps", u.mbps);
        pair.PutDouble("ratio", ratio);
        depth_json.PutObject(StrFormat("rep%d", rep), pair);
      }
      std::sort(ratios.begin(), ratios.end());
      double median = ratios[ratios.size() / 2];
      depth_json.PutDouble("median_ratio", median);
      io_gate_json.PutObject(StrFormat("d%zu", depth), depth_json);
      printf("  iodepth %2zu: ratios %.2fx %.2fx %.2fx -> median %.2fx\n",
             depth, ratios[0], ratios[1], ratios[2], median);
      if (io_gate_min_ratio < 0 || median < io_gate_min_ratio)
        io_gate_min_ratio = median;
    }
  }
  const bool io_gate_pass = !io_gated || io_gate_min_ratio >= io_gate_floor;
  if (uring_avail) {
    printf("%suring-direct vs psync (sync=n, iodepth >= 8): min median "
           "ratio = %.2fx (floor %.1fx) %s\n",
           io_gated ? "" : "\n", io_gate_min_ratio, io_gate_floor,
           io_gated ? (io_gate_pass ? "[ok]" : "[REGRESSION]")
                    : "[not gated in quick mode]");
  }

  printf("\n== Full-stack append (fig-2a workload, wall clock) ==\n");
  printf("   (embedded cluster, 4 providers; 1 client appends %" PRIu64
         " MB in %" PRIu64 " KB chunks, %" PRIu64 " KB pages)\n\n",
         total_mb, append_kb, psize >> 10);
  bench::Table cluster_table({"backend", "append MB/s"});
  bench::JsonObject cluster_json;
  for (const auto& b : backends) {
    std::string spec =
        b == "memory" ? std::string("memory") : "log:" + root + "/cluster_" + b;
    if (b == "log-nosync") continue;  // cluster wiring uses default options
    double mbps =
        RunClusterAppend(spec, psize, total_mb << 20, append_kb << 10);
    cluster_table.AddRow({b, StrFormat("%.1f", mbps)});
    cluster_json.PutDouble(b, mbps);
    std::filesystem::remove_all(root);
  }
  if (uring_avail) {
    double mbps = RunClusterAppend("log:" + root + "/cluster_log_uring", psize,
                                   total_mb << 20, append_kb << 10, "uring");
    cluster_table.AddRow({"log-uring", StrFormat("%.1f", mbps)});
    cluster_json.PutDouble("log-uring", mbps);
    std::filesystem::remove_all(root);
  }
  cluster_table.Print();
  std::filesystem::remove_all(root);

  bench::JsonObject config;
  config.PutU64("psize", psize);
  config.PutU64("writers", writers);
  config.PutU64("pages_per_writer", pages_per_writer);
  config.PutU64("total_mb", total_mb);
  config.PutU64("append_kb", append_kb);
  config.PutU64("io_psize", io_psize);
  config.PutU64("io_pages_per_writer", io_pages);
  config.PutU64("io_gate_puts", io_gate_puts);
  bench::JsonObject io_gate;
  io_gate.PutBool("uring_available", uring_avail);
  io_gate.PutDouble("min_median_ratio_nosync_iodepth8plus", io_gate_min_ratio);
  io_gate.PutDouble("gate_min_speedup", io_gate_floor);
  io_gate.PutBool("gated", io_gated);
  io_gate.PutBool("gate_pass", io_gate_pass);
  io_gate.PutObject("paired_rows", io_gate_json);
  bench::JsonObject doc;
  doc.PutString("bench", "ablation_store");
  doc.PutBool("quick", quick);
  doc.PutObject("config", config);
  doc.PutObject("store_sweep", store_json);
  doc.PutObject("io_sweep", io_json);
  doc.PutObject("cluster_append_mbps", cluster_json);
  doc.PutObject("uring_vs_psync", io_gate);
  const std::string json_path =
      bench::FlagValue(argc, argv, "json", "BENCH_store.json");
  if (!bench::WriteJsonFile(json_path, doc)) return 1;

  // Perf gate: the uring-direct/psync ratio is only meaningful in optimized
  // builds and on a quiet machine.
#ifdef NDEBUG
  return io_gate_pass ? 0 : 1;
#else
  return 0;
#endif
}
