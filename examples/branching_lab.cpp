// Cheap branching (paper sections 1, 2.1): "the same computation may
// proceed independently on different versions of the blob ... very useful
// for exploring alternative data processing algorithms starting from the
// same blob version."
//
// A dataset blob receives a baseline signal; three alternative processing
// pipelines each BRANCH from the same published snapshot and rewrite the
// data their own way, in parallel. None of them copies the dataset, none
// interferes with the others, and the original stays frozen.
//
// Run: ./build/examples/branching_lab
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"

using namespace blobseer;

namespace {

constexpr uint64_t kPsize = 1024;
constexpr uint64_t kSamples = 32 * 1024;  // one byte per sample

double MeanAbs(const std::string& s) {
  double sum = 0;
  for (unsigned char c : s) sum += std::abs(static_cast<int>(c) - 128);
  return sum / static_cast<double>(s.size());
}

}  // namespace

int main() {
  core::ClusterOptions copts;
  copts.num_providers = 4;
  copts.num_meta = 4;
  auto cluster = core::EmbeddedCluster::Start(copts);
  if (!cluster.ok()) return 1;
  auto client_or = (*cluster)->NewClient();
  if (!client_or.ok()) return 1;
  client::BlobClient& client = **client_or;

  // Baseline dataset: a noisy sine wave, one unsigned byte per sample.
  auto id = client.Create(kPsize);
  if (!id.ok()) return 1;
  client::Blob dataset(&client, *id);
  std::string signal(kSamples, '\0');
  for (uint64_t i = 0; i < kSamples; i++) {
    double s = 128 + 90 * std::sin(i * 0.02) + 20 * std::sin(i * 1.7);
    signal[i] = static_cast<char>(std::min(255.0, std::max(0.0, s)));
  }
  auto base = dataset.AppendSync(signal);
  if (!base.ok()) return 1;
  printf("dataset: %llu samples at snapshot %llu (|x-128| mean %.2f)\n",
         static_cast<unsigned long long>(kSamples),
         static_cast<unsigned long long>(*base), MeanAbs(signal));

  const uint64_t pages_before = (*cluster)->TotalProviderUsage().pages;

  // Three pipelines branch from the same snapshot and diverge in parallel.
  struct Pipeline {
    const char* name;
    std::function<char(char, uint64_t)> fn;
    client::Blob blob;
    double result = 0;
  };
  std::vector<Pipeline> pipelines;
  pipelines.push_back(
      {"low-pass (moving average)",
       [&signal](char, uint64_t i) {
         int acc = 0, n = 0;
         for (uint64_t k = i >= 8 ? i - 8 : 0; k <= i; k++, n++) {
           acc += static_cast<unsigned char>(signal[k]);
         }
         return static_cast<char>(acc / n);
       },
       {}});
  pipelines.push_back({"hard clip to [64, 192]",
                       [](char c, uint64_t) {
                         unsigned char v = static_cast<unsigned char>(c);
                         return static_cast<char>(
                             v < 64 ? 64 : (v > 192 ? 192 : v));
                       },
                       {}});
  pipelines.push_back({"invert",
                       [](char c, uint64_t) {
                         return static_cast<char>(
                             255 - static_cast<unsigned char>(c));
                       },
                       {}});

  for (auto& p : pipelines) {
    auto branch = dataset.Branch(*base);
    if (!branch.ok()) return 1;
    p.blob = *branch;
  }

  std::vector<std::thread> threads;
  for (auto& p : pipelines) {
    threads.emplace_back([&] {
      // Each pipeline rewrites the dataset in 4 KiB strides on its own
      // branch. Writes on one branch never serialize against the others.
      std::string chunk;
      for (uint64_t off = 0; off < kSamples; off += 4096) {
        uint64_t n = std::min<uint64_t>(4096, kSamples - off);
        if (!p.blob.Read(*base, off, n, &chunk).ok()) return;
        for (uint64_t i = 0; i < n; i++) chunk[i] = p.fn(chunk[i], off + i);
        if (!p.blob.WriteSync(chunk, off).ok()) return;
      }
      auto v = p.blob.GetRecent();
      if (!v.ok()) return;
      std::string out;
      if (!p.blob.Read(v->version, 0, v->size, &out).ok()) return;
      p.result = MeanAbs(out);
    });
  }
  for (auto& t : threads) t.join();

  printf("\npipeline results (each on its own branch of snapshot %llu):\n",
         static_cast<unsigned long long>(*base));
  for (auto& p : pipelines) {
    auto v = p.blob.GetRecent();
    printf("  blob %llu  %-28s |x-128| mean %.2f  (%llu versions)\n",
           static_cast<unsigned long long>(p.blob.id()), p.name, p.result,
           v.ok() ? static_cast<unsigned long long>(v->version - *base) : 0ull);
  }

  // The original snapshot is untouched; storage grew only by the pages the
  // pipelines actually rewrote (shared history costs nothing).
  std::string check;
  if (!dataset.Read(*base, 0, kSamples, &check).ok()) return 1;
  printf("\noriginal snapshot intact: %s\n",
         check == signal ? "yes" : "NO (bug!)");
  const uint64_t pages_after = (*cluster)->TotalProviderUsage().pages;
  printf("storage: %llu pages before branching, %llu after three full "
         "rewrites\n(3 branches x %llu pages each would cost %llu more "
         "with copies)\n",
         static_cast<unsigned long long>(pages_before),
         static_cast<unsigned long long>(pages_after),
         static_cast<unsigned long long>(kSamples / kPsize),
         static_cast<unsigned long long>(3 * (kSamples / kPsize)));
  printf("branching_lab OK\n");
  return 0;
}
