// E1 — Figure 2(a): "Append throughput as a blob dynamically grows".
//
// Paper setup (section 5): Grid'5000 Rennes; version manager and provider
// manager on dedicated nodes; a data provider and a metadata provider
// co-deployed on each of the remaining nodes (50 or 175); one client
// appends 64 MB into a fresh blob while the append bandwidth is monitored
// as a function of the blob's size in pages; page size 64 KB and 256 KB.
//
// Expected shape (paper): bandwidth stays high as the blob grows (85–105
// MB/s on a 117.5 MB/s NIC), with slight decreases each time the number of
// pages crosses a power of two (the metadata tree gains a level); larger
// pages perform better; 175 providers edge out 50.
//
// This binary runs the *real* BlobSeer stack on the simnet cluster model
// (117.5 MB/s full-duplex NICs, 0.1 ms latency); the metadata node cache is
// disabled so every border descent pays its true round trips.
#include <cinttypes>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/sim_cluster.h"

using namespace blobseer;

namespace {

struct SeriesPoint {
  uint64_t pages;
  double mbps;
};

std::vector<SeriesPoint> RunSeries(size_t providers, uint64_t psize,
                                   uint64_t total_bytes, uint64_t append_bytes,
                                   double provider_cpu_us, bool cache) {
  simnet::SimScheduler sched;
  std::vector<SeriesPoint> series;
  sched.Run([&] {
    core::SimClusterOptions opts;
    opts.num_provider_nodes = providers;
    opts.num_client_nodes = 1;
    opts.provider_cpu_us = provider_cpu_us;
    core::SimCluster cluster(&sched, opts);
    sched.SetCurrentNode(cluster.client_node(0));

    client::ClientOptions copts;
    copts.cache_metadata = cache;
    auto client = cluster.NewClient(copts);

    auto id = client->Create(psize);
    if (!id.ok()) return;
    std::string chunk(append_bytes, 'a');
    uint64_t appended = 0;
    while (appended < total_bytes) {
      double t0 = sched.Now();
      auto v = client->Append(*id, Slice(chunk));
      if (!v.ok()) {
        fprintf(stderr, "append failed: %s\n", v.status().ToString().c_str());
        return;
      }
      double dt_us = sched.Now() - t0;
      appended += append_bytes;
      series.push_back(SeriesPoint{appended / psize,
                                   static_cast<double>(append_bytes) / dt_us});
    }
  });
  return series;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  uint64_t total =
      bench::FlagU64(argc, argv, "total_mb", quick ? 8 : 64) * 1024 * 1024;
  uint64_t append = bench::FlagU64(argc, argv, "append_kb", 1024) * 1024;
  double provider_cpu = bench::FlagDouble(argc, argv, "provider_cpu_us", 1300);
  bool cache = bench::FlagBool(argc, argv, "cache", false);

  printf("== Figure 2(a): append throughput as the blob grows ==\n");
  printf("   (simulated Grid'5000 profile: 117.5 MB/s NIC, 0.1 ms latency;\n");
  printf("    single client appends %" PRIu64 " MB in %" PRIu64
         " KB appends; metadata cache %s)\n\n",
         total >> 20, append >> 10, cache ? "on" : "off");

  struct Config {
    uint64_t psize;
    size_t providers;
  };
  std::vector<Config> configs = {
      {64 * 1024, 175}, {256 * 1024, 175}, {64 * 1024, 50}, {256 * 1024, 50}};

  std::vector<std::vector<SeriesPoint>> all;
  for (const Config& c : configs) {
    all.push_back(RunSeries(c.providers, c.psize, total, append, provider_cpu,
                            cache));
  }

  bench::Table table({"pages(64K)/4", "64K,175prov MB/s", "256K,175prov MB/s",
                      "64K,50prov MB/s", "256K,50prov MB/s"});
  // Rows aligned by appended bytes (each append adds the same byte count in
  // all configs).
  size_t rows = all[0].size();
  for (size_t i = 0; i < rows; i++) {
    std::vector<std::string> cells;
    cells.push_back(std::to_string(all[0][i].pages));
    for (size_t c = 0; c < all.size(); c++) {
      cells.push_back(StrFormat("%.1f", all[c][i].mbps));
    }
    table.AddRow(std::move(cells));
  }
  table.Print();

  // Shape summary used by EXPERIMENTS.md.
  auto avg = [](const std::vector<SeriesPoint>& s, size_t from, size_t to) {
    double sum = 0;
    size_t n = 0;
    for (size_t i = from; i < to && i < s.size(); i++, n++) sum += s[i].mbps;
    return n ? sum / n : 0.0;
  };
  printf("\nshape checks:\n");
  for (size_t c = 0; c < configs.size(); c++) {
    double head = avg(all[c], 0, 8);
    double tail = avg(all[c], all[c].size() - 8, all[c].size());
    printf("  psize=%3" PRIu64 "K providers=%3zu  first-8 %.1f MB/s  "
           "last-8 %.1f MB/s  (decline %.1f%%)\n",
           configs[c].psize >> 10, configs[c].providers, head, tail,
           100.0 * (head - tail) / head);
  }
  printf("  256K curves should sit above 64K curves; bandwidth should stay "
         "a large fraction of the 117.5 MB/s NIC; dips at power-of-two page "
         "counts.\n");
  return 0;
}
