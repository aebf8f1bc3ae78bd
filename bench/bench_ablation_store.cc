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
// Two sweeps: raw store-level Put throughput with concurrent writers
// (where group commit shows up), then the full BlobSeer stack appending a
// blob through an embedded cluster with each backend configured, the same
// workload shape as bench_fig2a_append measured in wall-clock time.
#include <unistd.h>

#include <cinttypes>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "core/cluster.h"
#include "pagelog/log_page_store.h"
#include "provider/page_store.h"

using namespace blobseer;

namespace {

struct StoreResult {
  double mbps = 0;
  double puts_per_sec = 0;
  provider::PageStoreStats stats;
};

/// `backend` is "memory", "log" or "log-nosync".
std::unique_ptr<provider::PageStore> MakeBackend(const std::string& backend,
                                                 const std::string& dir) {
  if (backend == "memory") return provider::MakeMemoryPageStore();
  pagelog::LogPageStoreOptions opts;
  opts.sync = backend != "log-nosync";
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
/// `page_store`; returns wall-clock append MB/s.
double RunClusterAppend(const std::string& page_store, uint64_t psize,
                        uint64_t total, uint64_t append_bytes) {
  core::ClusterOptions opts;
  opts.num_providers = 4;
  opts.num_meta = 4;
  opts.page_store = page_store;
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
  cluster_table.Print();
  std::filesystem::remove_all(root);

  bench::JsonObject config;
  config.PutU64("psize", psize);
  config.PutU64("writers", writers);
  config.PutU64("pages_per_writer", pages_per_writer);
  config.PutU64("total_mb", total_mb);
  config.PutU64("append_kb", append_kb);
  bench::JsonObject doc;
  doc.PutString("bench", "ablation_store");
  doc.PutBool("quick", quick);
  doc.PutObject("config", config);
  doc.PutObject("store_sweep", store_json);
  doc.PutObject("cluster_append_mbps", cluster_json);
  const std::string json_path =
      bench::FlagValue(argc, argv, "json", "BENCH_store.json");
  return bench::WriteJsonFile(json_path, doc) ? 0 : 1;
}
