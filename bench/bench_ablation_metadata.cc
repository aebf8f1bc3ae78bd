// A1 — ablation: distributed segment-tree metadata (BlobSeer) vs a
// centralized metadata server (the design of the systems the paper
// contrasts itself with in sections 1 and 6: Lustre/PVFS/GFS-style).
//
// Both systems run on the same simulated cluster (117.5 MB/s NICs, 0.1 ms
// latency) with the identical data path (pages stored on data providers).
// They differ only in metadata:
//   * BlobSeer: ~1 + log2(N) immutable tree nodes written to a DHT spread
//     over all nodes, fully in parallel across writers;
//   * centralized: one RPC to a single metadata node that copies the
//     predecessor's full page table (N refs) under a global lock; the copy
//     cost is charged in virtual time at 20 ns per page ref.
//
// Reported: aggregate page-aligned-update throughput for W concurrent
// writers at several blob sizes, plus metadata stored. Expected shape: the
// centralized server is competitive (even ahead) on small blobs — fewer
// round trips — but its per-update O(N) work collapses as the blob grows
// and it cannot use more writers; BlobSeer's cost stays O(log N) and
// scales with writers.
#include <cinttypes>

#include "baseline/central_meta.h"
#include "bench_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/sim_cluster.h"

using namespace blobseer;

namespace {

constexpr uint64_t kPsize = 16384;

// Aggregate updates/s for each writer count in `writer_counts`, doing
// page-aligned single-page overwrites on an N-page blob through the full
// BlobSeer stack. One cluster and one pre-population serve all phases.
std::vector<double> RunBlobSeer(const std::vector<size_t>& writer_counts,
                                size_t updates_each, uint64_t blob_pages) {
  simnet::SimScheduler sched;
  std::vector<double> rates;
  sched.Run([&] {
    size_t max_writers = writer_counts.back();
    core::SimClusterOptions opts;
    opts.num_provider_nodes = 16;
    opts.num_client_nodes = max_writers;
    opts.provider_cpu_us = 100;  // 16 KB pages: cheap requests
    core::SimCluster cluster(&sched, opts);
    sched.SetCurrentNode(cluster.client_node(0));
    auto owner = cluster.NewClient();
    auto id = owner->Create(kPsize);
    if (!id.ok()) return;
    // Pre-populate in 4 MB slabs.
    std::string slab(4 << 20, 'b');
    uint64_t remaining = blob_pages * kPsize;
    Version last = 0;
    while (remaining > 0) {
      uint64_t n = std::min<uint64_t>(slab.size(), remaining);
      auto v = owner->Append(*id, Slice(slab.data(), n));
      if (!v.ok()) return;
      last = *v;
      remaining -= n;
    }
    if (!owner->Sync(*id, last).ok()) return;

    for (size_t writers : writer_counts) {
      double t0 = sched.Now();
      std::vector<simnet::SimScheduler::TaskId> tasks;
      for (size_t w = 0; w < writers; w++) {
        tasks.push_back(sched.Spawn([&, w] {
          sched.SetCurrentNode(cluster.client_node(w));
          auto client = cluster.NewClient();
          Rng rng(w + 1);
          std::string data(kPsize, static_cast<char>('A' + w % 26));
          for (size_t i = 0; i < updates_each; i++) {
            uint64_t page = rng.Uniform(blob_pages);
            auto v = client->Write(*id, Slice(data), page * kPsize);
            if (!v.ok()) {
              fprintf(stderr, "bs write: %s\n", v.status().ToString().c_str());
              return;
            }
          }
        }));
      }
      for (auto t : tasks) sched.Join(t);
      rates.push_back(static_cast<double>(writers * updates_each) /
                      ((sched.Now() - t0) / 1e6));
    }
  });
  return rates;
}

// Same workload against the centralized metadata server (data path
// identical: one page stored on a provider, then one metadata RPC).
std::vector<double> RunCentral(const std::vector<size_t>& writer_counts,
                               size_t updates_each, uint64_t blob_pages) {
  simnet::SimScheduler sched;
  std::vector<double> rates;
  sched.Run([&] {
    size_t max_writers = writer_counts.back();
    core::SimClusterOptions opts;
    opts.num_provider_nodes = 16;
    opts.num_client_nodes = max_writers + 1;  // last hosts the meta server
    opts.provider_cpu_us = 100;
    core::SimCluster cluster(&sched, opts);
    sched.SetCurrentNode(cluster.client_node(max_writers));

    auto central = std::make_shared<baseline::CentralMetaService>();
    central->set_update_cost_hook([&sched](uint64_t refs) {
      // 50 us base + 20 ns per copied page ref, in virtual time.
      sched.SleepFor(50.0 + 0.02 * static_cast<double>(refs));
    });
    std::string central_addr = simnet::SimTransport::MakeAddress(
        cluster.client_node(max_writers), "centralmeta");
    cluster.transport().SetServiceProfile(central_addr, {0.0, 1});
    if (!cluster.transport().Serve(central_addr, central).ok()) return;

    baseline::CentralMetaClient meta(&cluster.transport(), central_addr);
    auto id = meta.CreateAsync(kPsize).Wait(&cluster.executor());
    if (!id.ok()) return;
    {
      std::vector<baseline::PageRef> init(blob_pages);
      for (uint64_t p = 0; p < blob_pages; p++) {
        init[p] = baseline::PageRef{PageId{1, p}, ProviderId(p % 16)};
      }
      if (!meta.UpdateAsync(*id, 0, std::move(init), blob_pages * kPsize)
               .Wait(&cluster.executor())
               .ok())
        return;
    }
    for (size_t phase = 0; phase < writer_counts.size(); phase++) {
      size_t writers = writer_counts[phase];
      double t0 = sched.Now();
      std::vector<simnet::SimScheduler::TaskId> tasks;
      for (size_t w = 0; w < writers; w++) {
        tasks.push_back(sched.Spawn([&, w, phase] {
          sched.SetCurrentNode(cluster.client_node(w));
          provider::ProviderClient pages(&cluster.transport());
          baseline::CentralMetaClient m(&cluster.transport(), central_addr);
          Rng rng(w + 1);
          std::string data(kPsize, static_cast<char>('A' + w % 26));
          for (size_t i = 0; i < updates_each; i++) {
            uint64_t page = rng.Uniform(blob_pages);
            PageId pid{(phase + 1) * 1000 + w + 100, i + 1};
            std::string prov_addr = simnet::SimTransport::MakeAddress(
                cluster.provider_node(page % 16), "provider");
            if (!pages.WritePageAsync(prov_addr, pid, Slice(data))
                     .Wait(&cluster.executor())
                     .ok())
              return;
            if (!m.UpdateAsync(*id, page, {{pid, ProviderId(page % 16)}},
                               blob_pages * kPsize)
                     .Wait(&cluster.executor())
                     .ok())
              return;
          }
        }));
      }
      for (auto t : tasks) sched.Join(t);
      rates.push_back(static_cast<double>(writers * updates_each) /
                      ((sched.Now() - t0) / 1e6));
    }
  });
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  size_t updates = bench::FlagU64(argc, argv, "updates_each", quick ? 4 : 30);

  printf("== Ablation A1: distributed segment-tree vs centralized metadata ==\n");
  printf("   (simulated cluster, 16 data providers, 16 KB pages, "
         "page-aligned random overwrites)\n\n");

  const std::vector<size_t> writer_counts = {1, 4, 16};
  const std::vector<uint64_t> blob_sizes =
      quick ? std::vector<uint64_t>{1024}
            : std::vector<uint64_t>{1024, 8192, 32768};
  for (uint64_t blob_pages : blob_sizes) {
    printf("-- blob size: %" PRIu64 " pages (%s) --\n\n", blob_pages,
           HumanBytes(blob_pages * kPsize).c_str());
    bench::Table table({"writers", "blobseer upd/s", "central upd/s",
                        "central refs copied/upd", "blobseer meta keys/upd"});
    uint64_t bs_keys = 1;
    for (uint64_t p = 1; p < blob_pages; p *= 2) bs_keys++;
    std::vector<double> bs = RunBlobSeer(writer_counts, updates, blob_pages);
    std::vector<double> ct = RunCentral(writer_counts, updates, blob_pages);
    for (size_t i = 0; i < writer_counts.size(); i++) {
      table.AddRow({std::to_string(writer_counts[i]),
                    StrFormat("%.0f", i < bs.size() ? bs[i] : 0.0),
                    StrFormat("%.0f", i < ct.size() ? ct[i] : 0.0),
                    std::to_string(blob_pages),
                    StrFormat("~%" PRIu64, bs_keys)});
    }
    table.Print();
    printf("\n");
  }
  printf("shape check: the centralized server is fine on small blobs but "
         "its O(N)-per-update\ncopy flattens throughput as the blob grows; "
         "BlobSeer stays O(log N) per update and\nscales with the number "
         "of concurrent writers.\n");
  return 0;
}
