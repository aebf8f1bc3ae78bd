// Background re-replication driven by the failure detector: when a provider
// is declared dead, its pages are rebuilt onto different live providers from
// surviving replicas; draining providers are emptied the same way; and an
// optional rebalance pass spreads load onto newly joined providers. Every
// move commits by CAS on the page's location entry, so concurrent rebuilds
// and client-visible state stay consistent.
#ifndef BLOBSEER_LOCATOR_REBUILDER_H_
#define BLOBSEER_LOCATOR_REBUILDER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/executor.h"
#include "dht/client.h"
#include "locator/location.h"
#include "locator/table.h"
#include "provider/client.h"

namespace blobseer::locator {

/// Rebuilder's snapshot of one provider, derived from the provider
/// manager's registry + liveness state.
struct ProviderView {
  ProviderId id = kInvalidProvider;
  std::string address;
  /// Eligible as a move target: heartbeating (kAlive) and not draining.
  bool alive = false;
  /// Usable as a copy source: not declared dead (suspect still counts).
  bool up = false;
  bool draining = false;
};

struct RebuildOptions {
  /// Loop pacing; 0 disables the background loop (RunOnePass still works).
  uint64_t interval_us = 0;
  /// Per-pass budget: bounds the burst of copy traffic one pass may create.
  size_t max_moves_per_pass = 64;
  /// Also migrate pages toward the least-loaded providers when the spread
  /// exceeds one page (how joined providers pick up existing load).
  bool rebalance = true;
};

struct RebuildStats {
  uint64_t passes = 0;
  uint64_t pages_rebuilt = 0;      // replaced a dead replica
  uint64_t pages_drained = 0;      // moved off a draining provider
  uint64_t pages_rebalanced = 0;   // moved for load spread
  uint64_t failed_moves = 0;
  uint64_t cas_conflicts = 0;
};

class Rebuilder {
 public:
  using ProvidersFn = std::function<std::vector<ProviderView>()>;

  /// `table` must outlive the rebuilder; `providers` is polled at the start
  /// of each pass (the provider manager's registry under its lock). The
  /// rebuilder runs its own DHT client so CAS placement matches what
  /// clients compute — `dht_options` must equal theirs.
  Rebuilder(PageLocationTable* table, ProvidersFn providers,
            rpc::Transport* transport, std::vector<std::string> dht_nodes,
            dht::DhtClientOptions dht_options, RebuildOptions options);
  ~Rebuilder();

  /// One scan of the location table: heal entries with dead members, drain
  /// entries on draining providers, then rebalance. Returns the number of
  /// pages moved. Safe to call directly from tests (no loop required).
  /// The pass waits on its RPCs through `executor`, the executor the caller
  /// runs on (nullptr on a plain OS thread).
  size_t RunOnePass(Executor* executor = nullptr);

  /// Starts / stops the periodic pass loop on `executor`, paced by `clock`
  /// (real or simulated). No-op when options.interval_us is 0.
  void Start(Executor* executor, Clock* clock);
  void Stop();

  RebuildStats GetStats() const;
  LocationIndex* index() { return &index_; }

 private:
  struct Loop;

  /// Copies `pid` onto `to`, CASes `from`→`to` in the location entry, and
  /// deletes the vacated copy when its provider is still reachable. On
  /// success `*entry` becomes the installed entry.
  Status MovePage(const PageId& pid, LocationEntry* entry, ProviderId from,
                  ProviderId to,
                  const std::unordered_map<ProviderId, ProviderView>& views,
                  Executor* executor);

  PageLocationTable* table_;
  ProvidersFn providers_;
  RebuildOptions options_;
  dht::DhtClient dht_;
  LocationIndex index_;
  provider::ProviderClient providers_client_;

  mutable std::mutex stats_mu_;
  RebuildStats stats_;

  std::shared_ptr<Loop> loop_;
};

}  // namespace blobseer::locator

#endif  // BLOBSEER_LOCATOR_REBUILDER_H_
