// A3 — ablation: versioning space overhead and the lifecycle levers that
// bound it (paper section 4.3, "efficient use of storage space").
//
// Three passes over the same K-overwrites-of-an-N-page-blob workload:
//
//   baseline   — never delete anything: every snapshot's pages accumulate
//                (the pre-lifecycle behaviour, and the paper's own cost of
//                keeping all versions);
//   retention  — keep_last_k retention + GC sweeper + pagelog
//                auto-compaction: expired snapshots are discarded, their
//                pages swept and their segments compacted. Gate: live bytes
//                after GC must be <= 0.5x the baseline;
//   dedup      — a 50%-duplicate workload (every page written twice, once
//                per blob) with content-hash dedup on. Gate: pages stored
//                < pages written.
//
// Results are also written as JSON (--json=PATH, default BENCH_space.json)
// and the process exits non-zero when a gate fails, so CI can hold the
// line on the space story.
#include <cinttypes>
#include <filesystem>

#include "bench_util.h"
#include "common/clock.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/cluster.h"
#include "lifecycle/gc_sweeper.h"
#include "lifecycle/retention.h"
#include "vmanager/client.h"

using namespace blobseer;

namespace {

struct SpaceConfig {
  uint64_t psize = 0;
  uint64_t blob_pages = 0;
  uint64_t versions = 0;
  uint64_t pages_per_update = 0;
  uint32_t keep_last_k = 4;
  std::string root;
};

struct PassResult {
  uint64_t meta_bytes = 0;
  provider::PageStoreStats store;  ///< summed over every provider
  lifecycle::GcStats gc;
};

/// The shared overwrite workload: an N-page blob, then K random
/// `pages_per_update`-page overwrites (same seed in every pass). With
/// `retain`, a keep-last-k policy is installed and the GC sweeper runs to
/// quiescence before measuring.
bool RunOverwritePass(const SpaceConfig& cfg, bool retain, PassResult* out) {
  std::string dir = cfg.root + (retain ? "/retention" : "/baseline");
  std::filesystem::remove_all(dir);
  core::ClusterOptions opts;
  opts.num_providers = 4;
  opts.num_meta = 4;
  opts.page_store = "log:" + dir;
  // GC deletes feed segment dead ratios; compaction triggers itself. Small
  // segments so deletes land in sealed ones at bench scale.
  opts.log_compact_dead_ratio = retain ? 0.3 : 0.0;
  opts.log_segment_target_bytes = 8 * cfg.psize;
  auto cluster = core::EmbeddedCluster::Start(opts);
  if (!cluster.ok()) return false;
  auto client = (*cluster)->NewClient();
  if (!client.ok()) return false;

  auto id = (*client)->Create(cfg.psize);
  if (!id.ok()) return false;
  std::string base(cfg.blob_pages * cfg.psize, 'b');
  auto v0 = (*client)->Append(*id, Slice(base));
  if (!v0.ok() || !(*client)->Sync(*id, *v0).ok()) return false;

  Rng rng(7);
  std::string data(cfg.pages_per_update * cfg.psize, 'x');
  Version last = *v0;
  for (uint64_t k = 1; k <= cfg.versions; k++) {
    uint64_t page = rng.Uniform(cfg.blob_pages - cfg.pages_per_update);
    auto v = (*client)->Write(*id, Slice(data), page * cfg.psize);
    if (!v.ok()) {
      fprintf(stderr, "write failed: %s\n", v.status().ToString().c_str());
      return false;
    }
    last = *v;
    if (k % 8 == 0 && !(*client)->Sync(*id, last).ok()) return false;
  }
  if (!(*client)->Sync(*id, last).ok()) return false;

  if (retain) {
    vmanager::VersionManagerClient vm((*cluster)->transport(),
                                      (*cluster)->vmanager_address());
    lifecycle::RetentionPolicy policy;
    policy.keep_last_k = cfg.keep_last_k;
    if (!vm.SetRetentionAsync(*id, policy).Wait().ok()) return false;
    lifecycle::GcOptions go;
    go.interval_us = 0;  // driven by hand below
    go.max_sweep_per_pass = 1 << 16;
    (*cluster)->pmanager().StartGcSweeper(
        nullptr, RealClock::Default(), (*cluster)->transport(),
        (*cluster)->vmanager_address(), (*cluster)->dht_addresses(),
        dht::DhtClientOptions{}, go);
    lifecycle::GcSweeper* gc = (*cluster)->pmanager().gc_sweeper();
    uint64_t before = ~uint64_t{0};
    for (int pass = 0; pass < 32; pass++) {
      Status st = gc->RunOnePass(RealClock::Default()->NowMicros());
      if (!st.ok()) {
        fprintf(stderr, "gc pass failed: %s\n", st.ToString().c_str());
        return false;
      }
      uint64_t pages = (*cluster)->TotalProviderUsage().pages;
      if (pages == before) break;  // quiescent
      before = pages;
    }
    out->gc = gc->GetStats();
  }

  out->store = (*cluster)->TotalProviderUsage();
  out->meta_bytes = (*cluster)->TotalMetadataUsage().bytes;

  // Every retained snapshot must still read back in full.
  std::string check;
  Status s = (*client)->Read(*id, last, 0, cfg.blob_pages * cfg.psize, &check);
  if (!s.ok()) {
    fprintf(stderr, "post-pass read failed: %s\n", s.ToString().c_str());
    return false;
  }
  return true;
}

/// 50%-duplicate workload: every version's pages are written to two blobs
/// by a dedup-enabled client — the second write should adopt, not store.
bool RunDedupPass(const SpaceConfig& cfg, uint64_t* written_pages,
                  uint64_t* stored_pages, uint64_t* dedup_hits) {
  core::ClusterOptions opts;
  opts.num_providers = 4;
  opts.num_meta = 4;
  auto cluster = core::EmbeddedCluster::Start(opts);
  if (!cluster.ok()) return false;
  client::ClientOptions copts;
  copts.dedup = true;
  auto client = (*cluster)->NewClient(copts);
  if (!client.ok()) return false;

  auto a = (*client)->Create(cfg.psize);
  auto b = (*client)->Create(cfg.psize);
  if (!a.ok() || !b.ok()) return false;
  *written_pages = 0;
  for (uint64_t k = 0; k < cfg.versions; k++) {
    // Unique content per version, repeated across the two blobs.
    std::string data(cfg.pages_per_update * cfg.psize, '\0');
    Rng rng(1000 + k);
    for (auto& c : data) c = static_cast<char>('a' + rng.Uniform(26));
    for (BlobId id : {*a, *b}) {
      auto v = (*client)->Write(id, Slice(data), 0);
      if (!v.ok() || !(*client)->Sync(id, *v).ok()) return false;
      *written_pages += cfg.pages_per_update;
    }
  }
  *stored_pages = (*cluster)->TotalProviderUsage().pages;
  *dedup_hits = (*client)->GetStats().dedup_hits;

  // Both blobs must read back the shared bytes exactly.
  std::string want, got;
  {
    std::string data(cfg.pages_per_update * cfg.psize, '\0');
    Rng rng(1000 + cfg.versions - 1);
    for (auto& c : data) c = static_cast<char>('a' + rng.Uniform(26));
    want = data;
  }
  for (BlobId id : {*a, *b}) {
    auto recent = (*client)->GetRecent(id);
    if (!recent.ok()) return false;
    if (!(*client)->Read(id, recent->version, 0, want.size(), &got).ok() ||
        got != want) {
      fprintf(stderr, "dedup read mismatch on blob %" PRIu64 "\n", id);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  SpaceConfig cfg;
  cfg.psize = bench::FlagU64(argc, argv, "psize_kb", quick ? 16 : 64) * 1024;
  cfg.blob_pages =
      bench::FlagU64(argc, argv, "blob_pages", quick ? 64 : 256);
  cfg.versions = bench::FlagU64(argc, argv, "versions", quick ? 16 : 64);
  // A quarter of the blob per version: enough churn that keep-last-k
  // retention reclaims well past the 0.5x gate.
  cfg.pages_per_update =
      bench::FlagU64(argc, argv, "pages_per_update", cfg.blob_pages / 4);
  cfg.keep_last_k = static_cast<uint32_t>(
      bench::FlagU64(argc, argv, "keep_last_k", 4));
  cfg.root = bench::FlagValue(
      argc, argv, "dir",
      std::filesystem::temp_directory_path().string() + "/bs_bench_space");
  const std::string json_path =
      bench::FlagValue(argc, argv, "json", "BENCH_space.json");

  printf("== Ablation A3: storage overhead of versioning + lifecycle ==\n");
  printf("   (%" PRIu64 "-page blob, %" PRIu64 " versions, %" PRIu64
         " pages overwritten per version, keep_last_k=%u)\n\n",
         cfg.blob_pages, cfg.versions, cfg.pages_per_update, cfg.keep_last_k);

  PassResult baseline, retained;
  if (!RunOverwritePass(cfg, /*retain=*/false, &baseline)) return 1;
  if (!RunOverwritePass(cfg, /*retain=*/true, &retained)) return 1;
  uint64_t written = 0, stored = 0, hits = 0;
  if (!RunDedupPass(cfg, &written, &stored, &hits)) return 1;
  std::filesystem::remove_all(cfg.root);

  const double ratio = baseline.store.bytes == 0
                           ? 1.0
                           : static_cast<double>(retained.store.bytes) /
                                 static_cast<double>(baseline.store.bytes);
  const bool gc_gate = ratio <= 0.5;
  const bool dedup_gate = stored < written;

  bench::Table table({"pass", "pages", "live bytes", "meta bytes", "note"});
  table.AddRow({"baseline (never delete)", std::to_string(baseline.store.pages),
                HumanBytes(baseline.store.bytes),
                HumanBytes(baseline.meta_bytes), "all snapshots kept"});
  table.AddRow(
      {"retention + GC + compaction", std::to_string(retained.store.pages),
       HumanBytes(retained.store.bytes), HumanBytes(retained.meta_bytes),
       StrFormat("%.2fx of baseline, %" PRIu64 " pages swept, %" PRIu64
                 " log compactions",
                 ratio, retained.gc.pages_swept, retained.store.compactions)});
  table.AddRow({"dedup (50% duplicates)", std::to_string(stored),
                HumanBytes(stored * cfg.psize), "-",
                StrFormat("%" PRIu64 " written, %" PRIu64 " adopted", written,
                          hits)});
  table.Print();

  printf("\ngates: retention live bytes <= 0.5x baseline: %.2fx %s\n", ratio,
         gc_gate ? "[ok]" : "[REGRESSION]");
  printf("       dedup stored pages < written pages: %" PRIu64 " < %" PRIu64
         " %s\n",
         stored, written, dedup_gate ? "[ok]" : "[REGRESSION]");

  bench::JsonObject config;
  config.PutU64("psize", cfg.psize);
  config.PutU64("blob_pages", cfg.blob_pages);
  config.PutU64("versions", cfg.versions);
  config.PutU64("pages_per_update", cfg.pages_per_update);
  config.PutU64("keep_last_k", cfg.keep_last_k);
  bench::JsonObject base_obj;
  base_obj.PutU64("pages", baseline.store.pages);
  base_obj.PutU64("live_bytes", baseline.store.bytes);
  base_obj.PutU64("meta_bytes", baseline.meta_bytes);
  bench::JsonObject gc_obj;
  gc_obj.PutU64("pages", retained.store.pages);
  gc_obj.PutU64("live_bytes", retained.store.bytes);
  gc_obj.PutU64("meta_bytes", retained.meta_bytes);
  gc_obj.PutU64("versions_discarded", retained.gc.versions_discarded);
  gc_obj.PutU64("pages_swept", retained.gc.pages_swept);
  gc_obj.PutU64("nodes_retired", retained.gc.nodes_retired);
  gc_obj.PutU64("log_compactions", retained.store.compactions);
  gc_obj.PutDouble("ratio_vs_baseline", ratio);
  gc_obj.PutDouble("gate_max_ratio", 0.5);
  gc_obj.PutBool("gate_pass", gc_gate);
  bench::JsonObject dedup_obj;
  dedup_obj.PutU64("written_pages", written);
  dedup_obj.PutU64("stored_pages", stored);
  dedup_obj.PutU64("dedup_hits", hits);
  dedup_obj.PutBool("gate_pass", dedup_gate);
  bench::JsonObject doc;
  doc.PutString("bench", "ablation_space");
  doc.PutBool("quick", quick);
  doc.PutObject("config", config);
  doc.PutObject("baseline", base_obj);
  doc.PutObject("retention_gc", gc_obj);
  doc.PutObject("dedup", dedup_obj);
  if (!bench::WriteJsonFile(json_path, doc)) return 1;

  return gc_gate && dedup_gate ? 0 : 1;
}
