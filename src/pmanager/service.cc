#include "pmanager/service.h"

#include <algorithm>

#include "pmanager/messages.h"
#include "rpc/call.h"

namespace blobseer::pmanager {

ProviderManagerService::ProviderManagerService(
    std::unique_ptr<AllocationStrategy> strategy, Clock* clock,
    LivenessOptions liveness)
    : strategy_(std::move(strategy)),
      clock_(clock ? clock : RealClock::Default()),
      liveness_(liveness) {
  // A dead threshold at or below the suspect threshold would skip the
  // suspect state entirely; keep the state machine three-phased.
  if (liveness_.suspect_after_us != 0 &&
      liveness_.dead_after_us <= liveness_.suspect_after_us) {
    liveness_.dead_after_us = 3 * liveness_.suspect_after_us;
  }
}

ProviderManagerService::~ProviderManagerService() {
  StopGcSweeper();
  StopRebuilder();
}

void ProviderManagerService::RefreshLivenessLocked() const {
  if (liveness_.suspect_after_us == 0) return;  // detector disabled
  const uint64_t now = clock_->NowMicros();
  for (ProviderRecord& r : records_) {
    const uint64_t age = now - r.last_heartbeat_us;
    if (age >= liveness_.dead_after_us) {
      r.liveness = Liveness::kDead;
    } else if (age >= liveness_.suspect_after_us) {
      r.liveness = Liveness::kSuspect;
    } else {
      r.liveness = Liveness::kAlive;
    }
  }
}

std::vector<ProviderRecord> ProviderManagerService::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  RefreshLivenessLocked();
  return records_;
}

PmStats ProviderManagerService::GetStats() const {
  PmStats st;
  std::vector<char> usable;  // by provider id: page has this member
  {
    std::lock_guard<std::mutex> lock(mu_);
    RefreshLivenessLocked();
    st.providers = records_.size();
    st.allocations = allocations_;
    usable.resize(records_.size(), 0);
    for (const auto& r : records_) {
      switch (r.liveness) {
        case Liveness::kAlive: st.alive++; break;
        case Liveness::kSuspect: st.suspect++; break;
        case Liveness::kDead: st.dead++; break;
      }
      if (r.draining) st.draining++;
      usable[r.id] = r.liveness != Liveness::kDead && !r.draining;
    }
    if (!records_.empty()) {
      auto [mn, mx] = std::minmax_element(
          records_.begin(), records_.end(),
          [](const ProviderRecord& a, const ProviderRecord& b) {
            return a.allocated_pages < b.allocated_pages;
          });
      st.min_allocated = mn->allocated_pages;
      st.max_allocated = mx->allocated_pages;
    }
  }
  // Location-table scan outside mu_ (the table has its own lock):
  // a page is under-replicated when any member is dead, draining
  // or unknown — exactly the rebuilder's backlog.
  for (const auto& [pid, entry] : table_.Snapshot()) {
    st.located_pages++;
    for (ProviderId m : entry.providers) {
      if (m >= usable.size() || !usable[m]) {
        st.under_replicated++;
        break;
      }
    }
  }
  if (rebuilder_) {
    locator::RebuildStats rs = rebuilder_->GetStats();
    st.rebuilt_pages =
        rs.pages_rebuilt + rs.pages_drained + rs.pages_rebalanced;
  }
  if (gc_sweeper_) {
    lifecycle::GcStats gs = gc_sweeper_->GetStats();
    st.gc_passes = gs.passes;
    st.gc_versions_discarded = gs.versions_discarded;
    st.gc_versions_retired = gs.versions_retired;
    st.gc_pages_swept = gs.pages_swept;
  }
  return st;
}

std::vector<locator::ProviderView> ProviderManagerService::ProviderViews()
    const {
  std::vector<locator::ProviderView> views;
  std::lock_guard<std::mutex> lock(mu_);
  RefreshLivenessLocked();
  views.reserve(records_.size());
  for (const ProviderRecord& r : records_) {
    locator::ProviderView v;
    v.id = r.id;
    v.address = r.address;
    v.draining = r.draining;
    v.alive = r.liveness == Liveness::kAlive && !r.draining;
    v.up = r.liveness != Liveness::kDead;
    views.push_back(std::move(v));
  }
  return views;
}

void ProviderManagerService::StartRebuilder(Executor* executor, Clock* clock,
                                            rpc::Transport* transport,
                                            std::vector<std::string> dht_nodes,
                                            dht::DhtClientOptions dht_options,
                                            locator::RebuildOptions options) {
  StopRebuilder();
  rebuilder_ = std::make_unique<locator::Rebuilder>(
      &table_, [this] { return ProviderViews(); }, transport,
      std::move(dht_nodes), dht_options, options);
  rebuilder_->Start(executor, clock);
}

void ProviderManagerService::StopRebuilder() {
  if (!rebuilder_) return;
  rebuilder_->Stop();
  rebuilder_.reset();
}

void ProviderManagerService::StartGcSweeper(
    Executor* executor, Clock* clock, rpc::Transport* transport,
    std::string vm_address, std::vector<std::string> dht_nodes,
    dht::DhtClientOptions dht_options, lifecycle::GcOptions options) {
  StopGcSweeper();
  gc_sweeper_ = std::make_unique<lifecycle::GcSweeper>(
      &table_, [this] { return ProviderViews(); }, transport,
      std::move(vm_address), std::move(dht_nodes), dht_options, options);
  gc_sweeper_->Start(executor, clock);
}

bool ProviderManagerService::StopGcSweeper() {
  if (!gc_sweeper_) return true;
  gc_sweeper_->Stop();
  const bool drained = gc_sweeper_->Drained();
  gc_sweeper_.reset();
  return drained;
}

bool ProviderManagerService::Blocks(rpc::Method method) const {
  switch (method) {
    case rpc::Method::kPmRegister:
    case rpc::Method::kPmHeartbeat:
    case rpc::Method::kPmAllocate:
    case rpc::Method::kPmDirectory:
    case rpc::Method::kPmReportLocations:
      return false;
    default:
      return true;
  }
}

Status ProviderManagerService::Handle(rpc::Method method, Slice payload,
                                      std::string* response) {
  using rpc::DispatchTyped;
  switch (method) {
    case rpc::Method::kPmRegister:
      return DispatchTyped<RegisterRequest, RegisterResponse>(
          payload, response,
          [this](const RegisterRequest& req, RegisterResponse* rsp) {
            if (req.address.empty())
              return Status::InvalidArgument("empty provider address");
            std::lock_guard<std::mutex> lock(mu_);
            const uint64_t now = clock_->NowMicros();
            // Re-registration of the same address refreshes liveness and
            // keeps the id stable (provider restart). Resolved through the
            // address index — a linear registry scan here turns the bring-up
            // of an n-provider cluster into O(n^2).
            auto it = ids_by_address_.find(req.address);
            if (it != ids_by_address_.end()) {
              ProviderRecord& r = records_[it->second];
              r.liveness = Liveness::kAlive;
              r.last_heartbeat_us = now;
              r.capacity_pages = req.capacity_pages;
              // An operator bringing a drained provider back rejoins it
              // to the allocation pool.
              r.draining = false;
              rsp->id = r.id;
              return Status::OK();
            }
            ProviderRecord rec;
            rec.id = static_cast<ProviderId>(records_.size());
            rec.address = req.address;
            rec.capacity_pages = req.capacity_pages;
            rec.last_heartbeat_us = now;
            ids_by_address_.emplace(rec.address, rec.id);
            records_.push_back(std::move(rec));
            rsp->id = static_cast<ProviderId>(records_.size() - 1);
            return Status::OK();
          });
    case rpc::Method::kPmHeartbeat:
      return DispatchTyped<HeartbeatRequest, rpc::Empty>(
          payload, response,
          [this](const HeartbeatRequest& req, rpc::Empty*) {
            std::lock_guard<std::mutex> lock(mu_);
            // NotFound tells the sender to re-register (a restarted
            // provider manager has an empty registry).
            if (req.id >= records_.size())
              return Status::NotFound("provider id");
            records_[req.id].liveness = Liveness::kAlive;
            records_[req.id].last_heartbeat_us = clock_->NowMicros();
            // Trust the provider's own count over our optimistic estimate.
            records_[req.id].allocated_pages = req.stored_pages;
            return Status::OK();
          });
    case rpc::Method::kPmAllocate:
      return DispatchTyped<AllocateRequest, AllocateResponse>(
          payload, response,
          [this](const AllocateRequest& req, AllocateResponse* rsp) {
            if (req.num_pages == 0)
              return Status::InvalidArgument("allocate zero pages");
            // The leaf wire format stores the replica count as one byte.
            if (req.replication == 0 || req.replication > 255)
              return Status::InvalidArgument("replication factor out of range");
            std::lock_guard<std::mutex> lock(mu_);
            if (records_.empty())
              return Status::Unavailable("no providers registered");
            // Allocation-time exclusion: every strategy sees the current
            // failure-detector verdicts, so expired providers drop out of
            // the rotation here, not at write time.
            RefreshLivenessLocked();
            // Strategies charge allocated_pages (and retire full providers)
            // as they pick — that is the only record state they mutate. So
            // snapshot just the allocation counters and roll them back on a
            // partial allocation: failed requests leave no phantom load
            // behind, and a large registry no longer pays a full record
            // copy (address strings included) per allocation RPC.
            alloc_rollback_.resize(records_.size());
            for (size_t i = 0; i < records_.size(); i++)
              alloc_rollback_[i] = records_[i].allocated_pages;
            rsp->replicas =
                strategy_->Allocate(&records_, req.num_pages, req.replication);
            bool satisfied = rsp->replicas.size() == req.num_pages;
            for (const auto& set : rsp->replicas) {
              if (set.size() != req.replication) satisfied = false;
            }
            if (!satisfied) {
              for (size_t i = 0; i < alloc_rollback_.size(); i++)
                records_[i].allocated_pages = alloc_rollback_[i];
              return Status::Unavailable(
                  rsp->replicas.size() != req.num_pages
                      ? "insufficient provider capacity"
                      : "fewer live providers than replication factor");
            }
            allocations_ +=
                static_cast<uint64_t>(req.num_pages) * req.replication;
            return Status::OK();
          });
    case rpc::Method::kPmDirectory:
      return DispatchTyped<rpc::Empty, DirectoryResponse>(
          payload, response,
          [this](const rpc::Empty&, DirectoryResponse* rsp) {
            std::lock_guard<std::mutex> lock(mu_);
            // The directory stays complete — readers need the addresses of
            // suspect/dead providers for failover attempts and repair.
            rsp->entries.reserve(records_.size());
            for (const auto& r : records_) {
              rsp->entries.push_back(DirectoryEntry{r.id, r.address});
            }
            return Status::OK();
          });
    case rpc::Method::kPmReportLocations:
      return DispatchTyped<ReportLocationsRequest, rpc::Empty>(
          payload, response,
          [this](const ReportLocationsRequest& req, rpc::Empty*) {
            for (const auto& info : req.added) {
              table_.Record(info.pid,
                            locator::LocationEntry{info.epoch, info.providers});
            }
            for (const PageId& pid : req.removed) table_.Forget(pid);
            return Status::OK();
          });
    case rpc::Method::kPmDecommission:
      return DispatchTyped<DecommissionRequest, DecommissionResponse>(
          payload, response,
          [this](const DecommissionRequest& req, DecommissionResponse* rsp) {
            {
              std::lock_guard<std::mutex> lock(mu_);
              if (req.id >= records_.size())
                return Status::NotFound("provider id");
              records_[req.id].draining = true;
            }
            // Idempotent poll: the first call marks the provider draining,
            // every call reports how many pages still reference it. The
            // rebuilder loop does the actual moving.
            rsp->remaining_pages = table_.CountOn(req.id);
            rsp->drained = rsp->remaining_pages == 0;
            return Status::OK();
          });
    case rpc::Method::kPmStats:
      return DispatchTyped<rpc::Empty, PmStats>(
          payload, response, [this](const rpc::Empty&, PmStats* rsp) {
            *rsp = GetStats();
            return Status::OK();
          });
    default:
      return Status::NotSupported("pmanager method");
  }
}

}  // namespace blobseer::pmanager
