// M1: microbenchmarks for the core data structures — segment-tree math,
// serialization, hashing, DHT store. google-benchmark based.
#include <benchmark/benchmark.h>

#include "common/hash.h"
#include "common/random.h"
#include "common/serde.h"
#include "dht/store.h"
#include "meta/layout.h"
#include "meta/node.h"

namespace blobseer {
namespace {

void BM_UpdateNodeSet(benchmark::State& state) {
  const uint64_t psize = 64 * 1024;
  const uint64_t pages = static_cast<uint64_t>(state.range(0));
  const uint64_t total = pages * psize;
  Rng rng(42);
  for (auto _ : state) {
    uint64_t off = rng.Uniform(pages) * psize;
    uint64_t len = std::min<uint64_t>(16, pages - off / psize) * psize;
    auto set = meta::UpdateNodeSet(Extent{off, len}, total, psize);
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdateNodeSet)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_UpdateBorderBlocks(benchmark::State& state) {
  const uint64_t psize = 64 * 1024;
  const uint64_t pages = static_cast<uint64_t>(state.range(0));
  const uint64_t total = pages * psize;
  Rng rng(42);
  for (auto _ : state) {
    uint64_t off = rng.Uniform(pages) * psize;
    uint64_t len = std::min<uint64_t>(16, pages - off / psize) * psize;
    auto borders = meta::UpdateBorderBlocks(Extent{off, len}, total, psize);
    benchmark::DoNotOptimize(borders);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdateBorderBlocks)->Arg(1024)->Arg(65536)->Arg(1 << 20);

void BM_MetaNodeCodec(benchmark::State& state) {
  meta::MetaNode leaf = meta::MetaNode::Leaf(
      {meta::PageFragment{PageId{1, 2}, 0, 65536, 0}}, 12, 3);
  for (auto _ : state) {
    BinaryWriter w;
    leaf.EncodeTo(&w);
    meta::MetaNode decoded;
    BinaryReader r{Slice(w.buffer())};
    benchmark::DoNotOptimize(decoded.DecodeFrom(&r));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetaNodeCodec);

void BM_Fnv1a64(benchmark::State& state) {
  std::string key(static_cast<size_t>(state.range(0)), 'k');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fnv1a64(Slice(key)));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Fnv1a64)->Arg(33)->Arg(256);

void BM_KvStorePutGet(benchmark::State& state) {
  dht::KvStore store(16);
  Rng rng(7);
  std::string value(128, 'v');
  uint64_t i = 0;
  for (auto _ : state) {
    meta::NodeKey key{1, i++, Extent{rng.Next() % 1024, 64}};
    std::string k = key.ToDhtKey();
    benchmark::DoNotOptimize(store.Put(Slice(k), Slice(value)));
    std::string out;
    benchmark::DoNotOptimize(store.Get(Slice(k), &out));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_KvStorePutGet)->Threads(1)->Threads(8);

}  // namespace
}  // namespace blobseer

BENCHMARK_MAIN();
