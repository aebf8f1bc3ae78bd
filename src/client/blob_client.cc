#include "client/blob_client.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/random.h"
#include "common/string_util.h"
#include "meta/layout.h"

namespace blobseer::client {

using meta::MetaNode;
using meta::NodeKey;
using meta::PageFragment;
using vmanager::AssignTicket;

namespace {

/// Worker threads of the executor a client owns when none is injected.
constexpr size_t kOwnedExecutorThreads = 16;

// Resolves once every future has, with the first error (OK when none).
Future<Unit> AllOf(std::vector<Future<Unit>> futures) {
  return WhenAll(std::move(futures))
      .Then([](Result<std::vector<Result<Unit>>> all) -> Status {
        if (!all.ok()) return all.status();
        return FirstError(*all);
      });
}

}  // namespace

// Shared state of one WRITE/APPEND (or abort-repair) chain. Everything a
// stage borrows — the page split, the caller's payload view, compaction
// buffers, the node batch — hangs off this object, which every continuation
// captures by shared_ptr, so buffers live exactly as long as the operation.
struct BlobClient::UpdateOp {
  enum class Kind { kWrite, kAppend, kRepair };

  BlobClient* c = nullptr;
  BlobId id = kInvalidBlobId;
  Slice data;         // caller's buffer (WRITE/APPEND) or `zeros` below
  std::string zeros;  // abort-repair payload
  uint64_t offset = 0;
  Kind kind = Kind::kWrite;

  BlobDescriptor desc;
  AssignTicket ticket;
  std::shared_ptr<PageWriteBatch> batch;

  // Metadata-build state (initialized by PlanMetaAsync).
  BranchAncestry ancestry;
  BlobId self_origin = kInvalidBlobId;
  std::map<Extent, Version> border_map;
  std::shared_ptr<meta::MetaClient::SharedNodeMemo> memo;
  // Guards nodes, merged and compacted: the plan and the leaves build
  // concurrently.
  std::mutex mu;
  std::vector<std::pair<NodeKey, MetaNode>> nodes;
  std::vector<std::shared_ptr<std::string>> merged;  // compaction buffers
  // The pages compaction stored: they join the update's location wave.
  std::vector<std::shared_ptr<PageWriteBatch>> compacted;

  Promise<Version> promise;

  void AddNode(const Extent& block, MetaNode node) {
    std::lock_guard<std::mutex> lock(mu);
    nodes.emplace_back(NodeKey{self_origin, ticket.version, block},
                       std::move(node));
  }
};

struct BlobClient::ReadOp {
  BlobClient* c = nullptr;
  BlobId id = kInvalidBlobId;
  Version version = kNoVersion;
  uint64_t offset = 0;
  uint64_t size = 0;
  BlobDescriptor desc;
  BranchAncestry ancestry;
  std::string out;
  std::vector<meta::LeafRef> leaves;
  Promise<std::string> promise;
};

BlobClient::BlobClient(rpc::Transport* transport, std::string vmanager_address,
                       std::string pmanager_address,
                       std::vector<std::string> dht_nodes,
                       ClientOptions options, Clock* /*clock*/,
                       Executor* executor)
    : transport_(transport),
      options_(options),
      owned_executor_(executor
                          ? nullptr
                          : std::make_unique<ThreadPoolExecutor>(
                                kOwnedExecutorThreads)),
      executor_(executor ? executor : owned_executor_.get()),
      vm_(transport, std::move(vmanager_address),
          options.channels_per_endpoint),
      pm_(transport, std::move(pmanager_address),
          options.channels_per_endpoint),
      dht_(transport, std::move(dht_nodes),
           [&options] {
             dht::DhtClientOptions o = options.dht;
             o.channels_per_endpoint = options.channels_per_endpoint;
             return o;
           }()),
      locator_(&dht_, options.cache_capacity),
      meta_(&dht_, meta::MetaClientOptions{options.cache_metadata,
                                           options.cache_capacity}),
      providers_(transport, options.channels_per_endpoint) {
  // Non-zero, process-unique prefix for page ids.
  Rng rng(RealClock::Default()->NowMicros() ^
          reinterpret_cast<uintptr_t>(this));
  do {
    client_id_ = rng.Next();
  } while (client_id_ == 0);
}

BlobClient::~BlobClient() { DrainDetachedOps(); }

void BlobClient::PageWriteBatch::PutsStarted() {
  std::lock_guard<std::mutex> lock(mu);
  inflight_puts++;
}

void BlobClient::PageWriteBatch::PutsSettled() {
  std::vector<Promise<Unit>> ready;
  {
    std::lock_guard<std::mutex> lock(mu);
    if (--inflight_puts == 0) ready.swap(idle_waiters);
  }
  for (Promise<Unit>& p : ready) p.Set(Unit{});
}

Future<Unit> BlobClient::PageWriteBatch::WhenPutsSettled() {
  std::lock_guard<std::mutex> lock(mu);
  if (inflight_puts == 0) return MakeReadyFuture(Status::OK());
  idle_waiters.emplace_back();
  return idle_waiters.back().GetFuture();
}

void BlobClient::BeginDetachedOp() {
  std::lock_guard<std::mutex> lock(detached_mu_);
  detached_ops_++;
}

void BlobClient::EndDetachedOp() {
  std::shared_ptr<WaitEvent> waiter;
  {
    std::lock_guard<std::mutex> lock(detached_mu_);
    if (--detached_ops_ == 0) waiter = std::move(detached_waiter_);
  }
  if (waiter) waiter->Signal();
}

void BlobClient::DrainDetachedOps() {
  for (;;) {
    std::shared_ptr<WaitEvent> event;
    {
      std::lock_guard<std::mutex> lock(detached_mu_);
      if (detached_ops_ == 0) return;
      event = executor_->MakeWaitEvent();
      detached_waiter_ = event;
    }
    event->Await();
  }
}

PageId BlobClient::NewPageId() {
  return PageId{client_id_, page_seq_.fetch_add(1, std::memory_order_relaxed)};
}

Future<BlobDescriptor> BlobClient::DescriptorAsync(BlobId id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = descriptors_.find(id);
    if (it != descriptors_.end())
      return MakeReadyFuture<BlobDescriptor>(BlobDescriptor(it->second));
  }
  return OpenAsync(id);
}

Future<BlobId> BlobClient::CreateAsync(uint64_t psize) {
  return vm_.CreateBlobAsync(psize).Then(
      [this](Result<BlobDescriptor> desc) -> Result<BlobId> {
        if (!desc.ok()) return desc.status();
        std::lock_guard<std::mutex> lock(mu_);
        BlobId id = desc->id;
        descriptors_[id] = std::move(desc).ValueUnsafe();
        return id;
      });
}

Future<BlobDescriptor> BlobClient::OpenAsync(BlobId id) {
  return vm_.OpenBlobAsync(id).Then(
      [this, id](Result<vmanager::OpenInfo> info) -> Result<BlobDescriptor> {
        if (!info.ok()) return info.status();
        std::lock_guard<std::mutex> lock(mu_);
        descriptors_[id] = info->descriptor;
        return std::move(info->descriptor);
      });
}

std::vector<BlobClient::PageWrite> BlobClient::SplitIntoPages(
    Slice data, uint64_t offset, uint64_t psize) const {
  std::vector<PageWrite> out;
  uint64_t end = offset + data.size();
  uint64_t first = offset / psize;
  uint64_t last = (end - 1) / psize;
  out.reserve(last - first + 1);
  for (uint64_t p = first; p <= last; p++) {
    Extent page{p * psize, psize};
    uint64_t seg_begin = std::max(offset, page.offset);
    uint64_t seg_end = std::min(end, page.end());
    PageWrite w;
    w.page_index = p;
    w.frag.page_off = static_cast<uint32_t>(seg_begin - page.offset);
    w.frag.len = static_cast<uint32_t>(seg_end - seg_begin);
    w.frag.data_off = 0;
    w.bytes = data.SubSlice(seg_begin - offset, seg_end - seg_begin);
    out.push_back(w);
  }
  return out;
}

Future<Unit> BlobClient::RunWindowed(
    std::vector<std::function<Future<Unit>()>> tasks, size_t window) {
  if (tasks.empty()) return MakeReadyFuture(Status::OK());
  if (window == 0 || window >= tasks.size()) {
    // Unbounded: one parallel wave, no scheduling overhead.
    std::vector<Future<Unit>> all;
    all.reserve(tasks.size());
    for (auto& t : tasks) all.push_back(t());
    return AllOf(std::move(all));
  }
  struct WindowOp {
    BlobClient* c = nullptr;
    std::vector<std::function<Future<Unit>()>> tasks;
    std::mutex mu;
    size_t next = 0;
    size_t outstanding = 0;
    Status first_error;
    Promise<Unit> promise;

    void Launch(const std::shared_ptr<WindowOp>& self) {
      size_t i;
      {
        std::lock_guard<std::mutex> lock(mu);
        // A failed task stops the refill: a doomed operation (cleanup will
        // discard everything anyway) should not keep transferring pages.
        if (next >= tasks.size() || !first_error.ok()) return;
        i = next++;
        outstanding++;
      }
      tasks[i]().OnReady(nullptr, [self](Result<Unit> r) {
        bool done;
        bool refill;
        Status err;
        {
          std::lock_guard<std::mutex> lock(self->mu);
          self->outstanding--;
          if (!r.ok() && self->first_error.ok())
            self->first_error = r.status();
          refill = self->first_error.ok() && self->next < self->tasks.size();
          done = self->outstanding == 0 && !refill;
          err = self->first_error;
        }
        if (done) {
          self->promise.Set(err.ok() ? Result<Unit>(Unit{})
                                     : Result<Unit>(std::move(err)));
          return;
        }
        // Refill through the executor: on an inline-completing transport
        // a direct Launch here would recurse one frame per task.
        if (refill)
          self->c->executor_->Schedule([self] { self->Launch(self); });
      });
    }
  };
  auto op = std::make_shared<WindowOp>();
  op->c = this;
  op->tasks = std::move(tasks);
  Future<Unit> f = op->promise.GetFuture();
  for (size_t i = 0; i < window; i++) op->Launch(op);
  return f;
}

Future<Unit> BlobClient::StorePageReplicasAsync(
    std::shared_ptr<PageWriteBatch> batch, size_t index) {
  const PageWrite& w = batch->pages[index];
  std::vector<Future<std::string>> addresses;
  addresses.reserve(w.replicas.size());
  for (ProviderId p : w.replicas)
    addresses.push_back(pm_.ResolveAddressAsync(p));
  // Address resolution is a control-plane (directory) step: it fails only
  // when the provider manager is unreachable, so it is not absorbed by the
  // write quorum — an error here fails the page before any put is issued.
  return WhenAll(std::move(addresses))
      .Then([this, batch, index](Result<std::vector<Result<std::string>>>
                                     addrs) -> Future<Unit> {
        if (!addrs.ok()) return MakeReadyFuture(addrs.status());
        Status first = FirstError(*addrs);
        if (!first.ok()) return MakeReadyFuture(std::move(first));
        const PageWrite& w = batch->pages[index];
        const size_t total = addrs->size();
        // w of r: the page (and hence the update) acks once `needed`
        // replicas accepted. The location entry still lists every replica —
        // a reader failing over past a replica that missed its put heals
        // it via read repair, so no wire change is needed.
        size_t needed = options_.write_quorum == 0
                            ? total
                            : std::min<size_t>(options_.write_quorum, total);
        if (needed == 0) needed = total;

        struct Quorum {
          BlobClient* c = nullptr;
          std::shared_ptr<PageWriteBatch> batch;
          size_t needed = 0;
          size_t total = 0;
          std::mutex mu;
          size_t oks = 0;
          size_t fails = 0;
          bool acked = false;
          Status first_error;
          Promise<Unit> promise;
        };
        auto q = std::make_shared<Quorum>();
        q->c = this;
        q->batch = batch;
        q->needed = needed;
        q->total = total;
        Future<Unit> f = q->promise.GetFuture();
        // Stragglers past the quorum ack keep running detached; the
        // barrier (and the client-level detached counter) hold cleanup and
        // destruction until every put settled. Registered before the puts
        // launch so an inline-completing transport cannot settle first.
        batch->PutsStarted();
        BeginDetachedOp();
        // All r puts launch now — each serializes `w.bytes` into its
        // request before returning, so the caller's payload is not
        // referenced after this loop (stragglers outlive the op future).
        for (size_t j = 0; j < total; j++) {
          providers_.WritePageAsync(*(*addrs)[j], w.frag.pid, w.bytes)
              .OnReady(nullptr, [q](Result<Unit> put) {
                bool ack = false;
                bool done = false;
                Status outcome;  // OK unless this ack reports failure
                {
                  std::lock_guard<std::mutex> lock(q->mu);
                  if (put.ok()) {
                    q->oks++;
                  } else {
                    q->fails++;
                    if (q->first_error.ok()) q->first_error = put.status();
                  }
                  done = q->oks + q->fails == q->total;
                  if (!q->acked && q->oks >= q->needed) {
                    q->acked = true;
                    ack = true;
                  } else if (!q->acked && done) {
                    // Every replica settled short of the quorum. Failing
                    // only now (not at the first fatal miss) keeps the
                    // failure path free of put-vs-delete races.
                    q->acked = true;
                    ack = true;
                    outcome = q->first_error;
                  }
                }
                if (done) {
                  if (q->fails > 0 && outcome.ok()) {
                    std::lock_guard<std::mutex> lock(q->c->stats_mu_);
                    q->c->stats_.degraded_writes++;
                  }
                  q->batch->PutsSettled();
                  q->c->EndDetachedOp();
                }
                if (ack) {
                  q->promise.Set(outcome.ok() ? Result<Unit>(Unit{})
                                              : Result<Unit>(outcome));
                }
              });
        }
        return f;
      });
}

Future<Unit> BlobClient::StorePagesAsync(
    std::shared_ptr<PageWriteBatch> batch) {
  // Paper Algorithm 2 with replication: allocate a replica set per page,
  // then store every page on its replicas with no synchronization between
  // pages. max_inflight_pages caps concurrent page transfers so a huge
  // replicated update does not buffer update x r at once.
  return pm_
      .AllocateReplicatedAsync(static_cast<uint32_t>(batch->pages.size()),
                               options_.replication)
      .Then([this, batch](Result<std::vector<std::vector<ProviderId>>> sets)
                -> Future<Unit> {
        if (!sets.ok()) return MakeReadyFuture(sets.status());
        std::vector<std::function<Future<Unit>()>> tasks;
        tasks.reserve(batch->pages.size());
        const bool dedup = options_.dedup;
        for (size_t i = 0; i < batch->pages.size(); i++) {
          batch->pages[i].frag.pid = NewPageId();
          batch->pages[i].replicas = std::move((*sets)[i]);
          if (dedup && batch->pages[i].bytes.size() > 0) {
            tasks.push_back(
                [this, batch, i] { return StorePageDedupAsync(batch, i); });
          } else {
            tasks.push_back(
                [this, batch, i] { return StorePageReplicasAsync(batch, i); });
          }
        }
        return RunWindowed(std::move(tasks), options_.max_inflight_pages)
            .Then([this, batch](Result<Unit> all) -> Status {
              if (!all.ok()) return all.status();
              size_t stored = 0;
              for (const PageWrite& w : batch->pages)
                if (!w.adopted) stored++;
              std::lock_guard<std::mutex> lock(stats_mu_);
              stats_.pages_stored += stored;
              return Status::OK();
            });
      });
}

Future<Unit> BlobClient::StorePageDedupAsync(
    std::shared_ptr<PageWriteBatch> batch, size_t index) {
  PageWrite& w = batch->pages[index];
  w.hash = lifecycle::HashPage(w.bytes);
  // Claim state kept alive across the chain (Cas borrows the Slices).
  struct Claim {
    std::string hkey;
    std::string target;
    std::string seen;  // the conflicting mapping, for the repair CAS
  };
  auto st = std::make_shared<Claim>();
  st->hkey = lifecycle::HashKey(w.hash);
  st->target = lifecycle::EncodeHashTarget(w.frag.pid);
  return dht_
      .CasAsync(Slice(st->hkey), Slice(), Slice(st->target),
                /*expect_absent=*/true)
      .Then([this, batch, index,
             st](Result<dht::CasResponse> cas) -> Future<Unit> {
        PageWrite& w = batch->pages[index];
        if (!cas.ok()) {
          // Dedup is best-effort: an unreachable 'H' replica must not fail
          // the write — store the page as if dedup were off.
          return StorePageReplicasAsync(batch, index);
        }
        if (cas->applied) {
          w.claimed_h = true;
          return StorePageReplicasAsync(batch, index);
        }
        Result<PageId> existing = lifecycle::DecodeHashTarget(cas->current);
        if (!existing.ok()) return StorePageReplicasAsync(batch, index);
        st->seen = std::move(cas->current);
        // Adoption must CAS a refs bump so it loses cleanly against a GC
        // condemn of the same entry (docs/lifecycle.md).
        return locator_.AdjustRefsAsync(*existing, +1)
            .Then([this, batch, index, st, pid = *existing](
                      Result<locator::LocationEntry> e) -> Future<Unit> {
              if (e.ok()) {
                PageWrite& w = batch->pages[index];
                w.frag.pid = pid;
                w.replicas = e->providers;
                w.adopted = true;
                std::lock_guard<std::mutex> lock(stats_mu_);
                stats_.dedup_hits++;
                return MakeReadyFuture(Status::OK());
              }
              // The holder was condemned or deleted under us (GC won the
              // race, or its publish has not landed yet): store fresh,
              // then best-effort repoint the mapping at our page. A lost
              // repair only costs future dedup hits, never correctness —
              // the sweeper deletes 'H' keys conditionally on their
              // target.
              return StorePageReplicasAsync(batch, index)
                  .Then([this, batch, index,
                         st](Result<Unit> stored) -> Future<Unit> {
                    if (!stored.ok())
                      return MakeReadyFuture(stored.status());
                    return dht_
                        .CasAsync(Slice(st->hkey), Slice(st->seen),
                                  Slice(st->target), /*expect_absent=*/false)
                        .Then([batch, index,
                               st](Result<dht::CasResponse> rep) -> Status {
                          if (rep.ok() && rep->applied)
                            batch->pages[index].claimed_h = true;
                          return Status::OK();
                        });
                  });
            });
      });
}

Future<Unit> BlobClient::DeletePagesAsync(
    std::shared_ptr<PageWriteBatch> batch) {
  // Wait for the straggler barrier first: a put still in flight when the
  // cleanup starts could land after the delete and resurrect the page.
  return batch->WhenPutsSettled().Then([this, batch](
                                           Result<Unit>) -> Future<Unit> {
    std::vector<Future<Unit>> deletions;
    pmanager::ReportLocationsRequest report;
    for (const PageWrite& w : batch->pages) {
      if (!w.frag.pid.valid()) continue;
      locator_.Invalidate(w.frag.pid);
      if (w.claimed_h) {
        // Retract our 'H' claim first so no new adoption arrives while
        // this page unwinds.
        deletions.push_back(UnlinkHashAsync(w.hash, w.frag.pid));
      }
      if (w.hash.valid()) {
        // Dedup'd page: another writer may have adopted it since, so the
        // refcount decides. Our contribution is one reference; physical
        // deletion only happens when dropping it proves no one else holds
        // the page.
        deletions.push_back(
            locator_.AdjustRefsAsync(w.frag.pid, -1)
                .Then([this, pid = w.frag.pid, adopted = w.adopted,
                       replicas = w.replicas](
                          Result<locator::LocationEntry> e) -> Future<Unit> {
                  if (e.ok()) {
                    if (!e->condemned()) return MakeReadyFuture(Status::OK());
                    return PurgePageAsync(pid, e->providers);
                  }
                  // FailedPrecondition: the GC condemned the entry and owns
                  // the physical delete. NotFound on an adopted page: the
                  // entry is gone, nothing of ours to clean. NotFound on a
                  // page we stored: the publish never landed, so the copies
                  // are only findable through our local replica list.
                  if (e.status().IsNotFound() && !adopted)
                    return PurgePageAsync(pid, std::move(replicas));
                  return MakeReadyFuture(Status::OK());
                }));
        continue;
      }
      // Retract the page's location entry (cache, DHT, pmanager table) so
      // the rebuilder never tries to re-replicate a deleted page.
      report.removed.push_back(w.frag.pid);
      deletions.push_back(
          dht_.DeleteAsync(locator::LocationKey(w.frag.pid))
              .Then([](Result<Unit>) { return Status::OK(); }));
      // Every incarnation: each replica stored its own copy of the page.
      for (ProviderId provider : w.replicas) {
        deletions.push_back(
            pm_.ResolveAddressAsync(provider)
                .Then([this, pid = w.frag.pid](
                          Result<std::string> addr) -> Future<Unit> {
                  if (!addr.ok()) return MakeReadyFuture(Status::OK());
                  return providers_.DeletePageAsync(*addr, pid)
                      .Then([](Result<Unit>) { return Status::OK(); });
                }));
      }
    }
    if (!report.removed.empty())
      deletions.push_back(
          pm_.ReportLocationsAsync(std::move(report))
              .Then([](Result<Unit>) { return Status::OK(); }));
    return WhenAll(std::move(deletions))
        .Then([batch](Result<std::vector<Result<Unit>>>) {
          return Status::OK();  // best-effort by design
        });
  });
}

Future<Unit> BlobClient::UnlinkHashAsync(lifecycle::ContentHash hash,
                                         PageId pid) {
  auto hkey = std::make_shared<std::string>(lifecycle::HashKey(hash));
  return dht_.GetAsync(Slice(*hkey))
      .Then([this, hkey, pid](Result<std::string> cur) -> Future<Unit> {
        if (!cur.ok()) return MakeReadyFuture(Status::OK());
        Result<PageId> target = lifecycle::DecodeHashTarget(*cur);
        // Only unlink our own mapping: a repair CAS may already have
        // repointed the hash at someone else's live page.
        if (!target.ok() || *target != pid)
          return MakeReadyFuture(Status::OK());
        return dht_.DeleteAsync(Slice(*hkey))
            .Then([hkey](Result<Unit>) { return Status::OK(); });
      });
}

Future<Unit> BlobClient::PurgePageAsync(PageId pid,
                                        std::vector<ProviderId> replicas) {
  locator_.Invalidate(pid);
  std::vector<Future<Unit>> deletions;
  deletions.push_back(locator_.DeleteEntryAsync(pid).Then(
      [](Result<Unit>) { return Status::OK(); }));
  for (ProviderId provider : replicas) {
    deletions.push_back(
        pm_.ResolveAddressAsync(provider)
            .Then([this, pid](Result<std::string> addr) -> Future<Unit> {
              if (!addr.ok()) return MakeReadyFuture(Status::OK());
              return providers_.DeletePageAsync(*addr, pid)
                  .Then([](Result<Unit>) { return Status::OK(); });
            }));
  }
  return WhenAll(std::move(deletions))
      .Then([](Result<std::vector<Result<Unit>>>) { return Status::OK(); });
}

Future<Version> BlobClient::ResolveBorderAsync(std::shared_ptr<UpdateOp> op,
                                               const Extent& block) {
  auto it = op->border_map.find(block);
  if (it != op->border_map.end())
    return MakeReadyFuture<Version>(Version{it->second});
  return meta_.ResolveBlockVersionAsync(op->ancestry, op->ticket.published,
                                        op->ticket.published_size,
                                        op->desc.psize, block, op->memo);
}

Future<Unit> BlobClient::BuildLeafAsync(std::shared_ptr<UpdateOp> op,
                                        PageWrite* w) {
  const uint64_t psize = op->desc.psize;
  const AssignTicket& ticket = op->ticket;
  Extent block{w->page_index * psize, psize};
  // Content length of this page in the new and old snapshots.
  uint64_t cs_new = std::min(block.end(), ticket.new_size) - block.offset;
  uint64_t cs_old =
      block.offset >= ticket.old_size
          ? 0
          : std::min(block.end(), ticket.old_size) - block.offset;
  uint64_t frag_end = w->frag.page_off + w->frag.len;
  bool head_missing = w->frag.page_off > 0;
  bool tail_missing = frag_end < cs_new;
  if (!head_missing && !tail_missing) {
    op->AddNode(block, MetaNode::Leaf({w->frag}, kNoVersion, 1));
    return MakeReadyFuture(Status::OK());
  }

  return ResolveBorderAsync(op, block)
      .Then([this, op, w, block, cs_new,
             cs_old](Result<Version> prev_r) -> Future<Unit> {
        if (!prev_r.ok()) return MakeReadyFuture(prev_r.status());
        Version prev = *prev_r;
        if (prev == kNoVersion) {
          return MakeReadyFuture(Status::Internal(
              "missing previous leaf for partial page at " +
              block.ToString()));
        }
        if (prev > op->ticket.published) {
          // The previous leaf is still unpublished: link to it blindly
          // (chain length unknown; a later write compacts).
          op->AddNode(block,
                      MetaNode::Leaf({w->frag}, prev, meta::kUnknownChainLen));
          return MakeReadyFuture(Status::OK());
        }
        // The previous leaf is published, hence readable: learn its chain
        // length and compact if the chain grew too long.
        return meta_
            .GetNodeAsync(NodeKey{op->ancestry.Resolve(prev), prev, block})
            .Then([this, op, w, block, cs_new, cs_old,
                   prev](Result<MetaNode> prev_leaf_r) -> Future<Unit> {
              if (!prev_leaf_r.ok())
                return MakeReadyFuture(prev_leaf_r.status());
              MetaNode prev_leaf = std::move(prev_leaf_r).ValueUnsafe();
              if (prev_leaf.chain_len != meta::kUnknownChainLen &&
                  prev_leaf.chain_len + 1 <= options_.max_chain) {
                op->AddNode(block, MetaNode::Leaf({w->frag}, prev,
                                                  prev_leaf.chain_len + 1));
                return MakeReadyFuture(Status::OK());
              }
              // Compaction: materialize the merged page so the chain
              // resets. The merged buffer lives on the op.
              auto buffer = std::make_shared<std::string>(cs_new, '\0');
              auto one = std::make_shared<PageWriteBatch>(1);
              {
                std::lock_guard<std::mutex> lock(op->mu);
                op->merged.push_back(buffer);
                op->compacted.push_back(one);
              }
              Future<Unit> filled =
                  cs_old == 0
                      ? MakeReadyFuture(Status::OK())
                      : ResolveLeafPiecesAsync(op->ancestry, block, prev_leaf,
                                               {Interval{0, cs_old}})
                            .Then([this, buffer](
                                      Result<std::vector<FetchPiece>> pieces)
                                      -> Future<Unit> {
                              if (!pieces.ok())
                                return MakeReadyFuture(pieces.status());
                              std::vector<uint64_t> bases(pieces->size(), 0);
                              return FetchPiecesIntoAsync(
                                  std::move(*pieces), std::move(bases), 0,
                                  buffer->data());
                            });
              return filled.Then([this, op, w, buffer, one,
                                  block](Result<Unit> r) -> Future<Unit> {
                if (!r.ok()) return MakeReadyFuture(r.status());
                std::memcpy(buffer->data() + w->frag.page_off,
                            w->bytes.data(), w->bytes.size());
                one->pages[0].page_index = w->page_index;
                one->pages[0].frag.page_off = 0;
                one->pages[0].frag.len = static_cast<uint32_t>(buffer->size());
                one->pages[0].frag.data_off = 0;
                one->pages[0].bytes = Slice(*buffer);
                return StorePagesAsync(one).Then(
                    [this, op, one, block](Result<Unit> stored) -> Status {
                      if (!stored.ok()) return stored.status();
                      op->AddNode(block, MetaNode::Leaf({one->pages[0].frag},
                                                        kNoVersion, 1));
                      std::lock_guard<std::mutex> lock(stats_mu_);
                      stats_.compactions++;
                      return Status::OK();
                    });
              });
            });
      });
}

Future<Unit> BlobClient::PlanMetaAsync(std::shared_ptr<UpdateOp> op) {
  op->ancestry = op->desc.Ancestry();
  op->self_origin = op->ancestry.Resolve(op->ticket.version);
  op->border_map.clear();
  for (const auto& b : op->ticket.borders) op->border_map[b.block] = b.version;
  // Shared across this update's descents: a writer resolving several border
  // blocks walks overlapping root-to-block paths.
  op->memo = std::make_shared<meta::MetaClient::SharedNodeMemo>();

  // --- Inner nodes (paper Algorithm 4, second loop): resolve the
  // non-updated children of every new inner node, then assemble them. ---
  const uint64_t psize = op->desc.psize;
  const Extent range = op->ticket.range();
  const Version vw = op->ticket.version;
  struct InnerPlan {
    Extent block;
    Version left = kNoVersion;
    Version right = kNoVersion;
    int left_resolve = -1;  // index into `resolves`
    int right_resolve = -1;
  };
  auto plans = std::make_shared<std::vector<InnerPlan>>();
  std::vector<Future<Version>> resolves;
  for (const Extent& block :
       meta::UpdateNodeSet(range, op->ticket.new_size, psize)) {
    if (meta::IsLeafBlock(block, psize)) continue;
    InnerPlan plan;
    plan.block = block;
    Extent left = meta::LeftChildBlock(block);
    Extent right = meta::RightChildBlock(block);
    if (left.Intersects(range)) {
      plan.left = vw;
    } else {
      plan.left_resolve = static_cast<int>(resolves.size());
      resolves.push_back(ResolveBorderAsync(op, left));
    }
    if (right.Intersects(range)) {
      plan.right = vw;
    } else {
      plan.right_resolve = static_cast<int>(resolves.size());
      resolves.push_back(ResolveBorderAsync(op, right));
    }
    plans->push_back(plan);
  }
  return WhenAll(std::move(resolves))
      .Then([op, plans](Result<std::vector<Result<Version>>> rs) -> Status {
        if (!rs.ok()) return rs.status();
        BS_RETURN_NOT_OK(FirstError(*rs));
        for (const auto& plan : *plans) {
          Version vl =
              plan.left_resolve >= 0 ? *(*rs)[plan.left_resolve] : plan.left;
          Version vr = plan.right_resolve >= 0 ? *(*rs)[plan.right_resolve]
                                               : plan.right;
          op->AddNode(plan.block, MetaNode::Inner(vl, vr));
        }
        return Status::OK();
      });
}

Future<Unit> BlobClient::BuildLeavesAsync(std::shared_ptr<UpdateOp> op) {
  // Paper Algorithm 4, first loop: every leaf in parallel.
  std::vector<Future<Unit>> leaves;
  leaves.reserve(op->batch->pages.size());
  for (PageWrite& w : op->batch->pages)
    leaves.push_back(BuildLeafAsync(op, &w));
  return AllOf(std::move(leaves));
}

Future<Unit> BlobClient::ShipUpdateAsync(std::shared_ptr<UpdateOp> op) {
  // One DHT wave: every new tree node and the location entry of every page
  // this update stored go out as one kDhtMultiPut per DHT node. None of it
  // is reachable before NotifySuccess, so the wave changes no read
  // semantics. Adopted pages already have a live entry (their refcount bump
  // proved it); publishing again would reset its epoch history.
  auto nodes = std::make_shared<std::vector<std::pair<NodeKey, MetaNode>>>(
      std::move(op->nodes));
  auto entries =
      std::make_shared<std::vector<std::pair<PageId, locator::LocationEntry>>>();
  std::vector<dht::PutRequest> wave;
  wave.reserve(nodes->size() + op->batch->pages.size() + op->compacted.size());
  for (const auto& [key, node] : *nodes)
    wave.push_back(meta::MetaClient::NodePut(key, node));
  auto publish = [&](const PageWriteBatch& b) {
    for (const PageWrite& w : b.pages) {
      if (w.adopted) continue;
      locator::LocationEntry entry = locator::LocationIndex::FreshEntry(
          w.replicas, w.hash.hi, w.hash.lo);
      wave.push_back(locator::LocationIndex::PublishPut(w.frag.pid, entry));
      entries->emplace_back(w.frag.pid, std::move(entry));
    }
  };
  publish(*op->batch);
  for (const auto& b : op->compacted) publish(*b);
  return dht_.MultiPutAsync(std::move(wave))
      .Then([this, entries](Result<Unit> r) -> Future<Unit> {
        if (!r.ok()) return MakeReadyFuture(r.status());
        // Feed the provider manager's location table so the rebuilder can
        // heal these pages. Only now: the rebuilder forgets a reported page
        // whose entry is missing. Required, not best-effort: a page the
        // table never learns about would silently stay under-replicated
        // after a provider loss.
        pmanager::ReportLocationsRequest report;
        report.added.reserve(entries->size());
        for (const auto& [pid, entry] : *entries)
          report.added.push_back(
              pmanager::PageLocationInfo{pid, entry.epoch, entry.providers});
        if (report.added.empty()) return MakeReadyFuture(Status::OK());
        return pm_.ReportLocationsAsync(std::move(report));
      })
      .Then([this, nodes, entries](Result<Unit> r) -> Status {
        if (!r.ok()) return r.status();
        for (const auto& [pid, entry] : *entries)
          locator_.NotePublished(pid, entry);
        const size_t count = nodes->size();
        meta_.CacheNodes(std::move(*nodes));
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.meta_nodes_written += count;
        stats_.locations_published += entries->size();
        return Status::OK();
      });
}

Future<Version> BlobClient::RunUpdateAsync(std::shared_ptr<UpdateOp> op,
                                           Future<Unit> stored) {
  // The plan needs only the ticket, so it overlaps the page transfers. The
  // leaves wait for them: dedup adoption may swap a page id.
  std::vector<Future<Unit>> ready;
  ready.push_back(std::move(stored));
  ready.push_back(PlanMetaAsync(op));
  Future<Unit> shipped =
      AllOf(std::move(ready))
          .Then([this, op](Result<Unit> r) -> Future<Unit> {
            if (!r.ok()) return MakeReadyFuture(r.status());
            return BuildLeavesAsync(op);
          })
          .Then([this, op](Result<Unit> r) -> Future<Unit> {
            if (!r.ok()) return MakeReadyFuture(r.status());
            return ShipUpdateAsync(op);
          })
          .Then([this, op](Result<Unit> r) -> Future<Unit> {
            if (r.ok()) return MakeReadyFuture(Status::OK());
            // The update cannot be completed: delete its pages and, unless
            // it is an abort repair already, abort it so the version chain
            // keeps advancing. Then surface the original failure.
            Status cause = r.status();
            std::vector<Future<Unit>> deletions;
            deletions.push_back(DeletePagesAsync(op->batch));
            for (const auto& b : op->compacted)
              deletions.push_back(DeletePagesAsync(b));
            Future<Unit> cleaned = AllOf(std::move(deletions));
            if (op->kind != UpdateOp::Kind::kRepair) {
              cleaned = cleaned.Then([this, op](Result<Unit>) {
                return AbortAsync(op->id, op->ticket.version);
              });
            }
            return cleaned.Then([cause](Result<Unit>) -> Status {
              return cause;
            });
          });
  return shipped.Then([this, op](Result<Unit> r) -> Future<Version> {
    if (!r.ok()) return MakeReadyFuture<Version>(r.status());
    return vm_.NotifySuccessAsync(op->id, op->ticket.version)
        .Then([this, op](Result<Unit> n) -> Result<Version> {
          if (!n.ok()) return n.status();
          std::lock_guard<std::mutex> lock(stats_mu_);
          switch (op->kind) {
            case UpdateOp::Kind::kWrite:
              stats_.writes++;
              stats_.bytes_written += op->data.size();
              break;
            case UpdateOp::Kind::kAppend:
              stats_.appends++;
              stats_.bytes_written += op->data.size();
              break;
            case UpdateOp::Kind::kRepair:
              stats_.repairs++;
              break;
          }
          return op->ticket.version;
        });
  });
}

Future<Version> BlobClient::WriteAsync(BlobId id, Slice data,
                                       uint64_t offset) {
  if (data.empty())
    return MakeReadyFuture<Version>(Status::InvalidArgument("empty write"));
  auto op = std::make_shared<UpdateOp>();
  op->c = this;
  op->id = id;
  op->data = data;
  op->offset = offset;
  op->kind = UpdateOp::Kind::kWrite;
  Future<Version> f = op->promise.GetFuture();

  DescriptorAsync(id).OnReady(nullptr, [this, op](Result<BlobDescriptor> d) {
    if (!d.ok()) {
      op->promise.Set(d.status());
      return;
    }
    op->desc = std::move(d).ValueUnsafe();
    // Paper Algorithm 2: store the new pages first, fully in parallel,
    // with no synchronization; only then register the update.
    op->batch = std::make_shared<PageWriteBatch>(
        SplitIntoPages(op->data, op->offset, op->desc.psize));
    StorePagesAsync(op->batch).OnReady(nullptr, [this, op](Result<Unit> s) {
      if (!s.ok()) {
        Status cause = s.status();
        DeletePagesAsync(op->batch).OnReady(
            nullptr, [op, cause](Result<Unit>) { op->promise.Set(cause); });
        return;
      }
      vm_.AssignVersionAsync(op->id, /*is_append=*/false, op->offset,
                             op->data.size())
          .OnReady(nullptr, [this, op](Result<AssignTicket> t) {
            if (!t.ok()) {
              Status cause = t.status();
              DeletePagesAsync(op->batch)
                  .OnReady(nullptr, [op, cause](Result<Unit>) {
                    op->promise.Set(cause);
                  });
              return;
            }
            op->ticket = std::move(t).ValueUnsafe();
            RunUpdateAsync(op, MakeReadyFuture(Status::OK()))
                .OnReady(nullptr, [op](Result<Version> v) {
                  op->promise.Set(std::move(v));
                });
          });
    });
  });
  return f;
}

Future<Version> BlobClient::AppendAsync(BlobId id, Slice data) {
  if (data.empty())
    return MakeReadyFuture<Version>(Status::InvalidArgument("empty append"));
  auto op = std::make_shared<UpdateOp>();
  op->c = this;
  op->id = id;
  op->data = data;
  op->kind = UpdateOp::Kind::kAppend;
  Future<Version> f = op->promise.GetFuture();

  DescriptorAsync(id).OnReady(nullptr, [this, op](Result<BlobDescriptor> d) {
    if (!d.ok()) {
      op->promise.Set(d.status());
      return;
    }
    op->desc = std::move(d).ValueUnsafe();
    // Appends learn their offset from the version manager (paper section
    // 3.3); with unaligned blob sizes the page split depends on it, so the
    // version is assigned before the pages are stored (DESIGN.md 3.3).
    vm_.AssignVersionAsync(op->id, /*is_append=*/true, 0, op->data.size())
        .OnReady(nullptr, [this, op](Result<AssignTicket> t) {
          if (!t.ok()) {
            op->promise.Set(t.status());
            return;
          }
          op->ticket = std::move(t).ValueUnsafe();
          op->offset = op->ticket.offset;
          op->batch = std::make_shared<PageWriteBatch>(
              SplitIntoPages(op->data, op->offset, op->desc.psize));
          RunUpdateAsync(op, StorePagesAsync(op->batch))
              .OnReady(nullptr, [op](Result<Version> v) {
                op->promise.Set(std::move(v));
              });
        });
  });
  return f;
}

Future<std::vector<BlobClient::FetchPiece>> BlobClient::ResolveLeafPiecesAsync(
    const BranchAncestry& ancestry, const Extent& block, const MetaNode& leaf,
    std::vector<Interval> needed) {
  struct WalkOp {
    BlobClient* c;
    BranchAncestry ancestry;
    Extent block;
    MetaNode cur;
    std::vector<Interval> needed;
    std::vector<FetchPiece> out;
    Promise<std::vector<FetchPiece>> promise;

    void Step(const std::shared_ptr<WalkOp>& self) {
      // Overlay this leaf's fragments onto whatever is still uncovered.
      for (const PageFragment& frag : cur.fragments) {
        uint64_t fb = frag.page_off;
        uint64_t fe = frag.page_off + frag.len;
        std::vector<Interval> rest;
        rest.reserve(needed.size() + 1);
        for (const Interval& iv : needed) {
          uint64_t ob = std::max(iv.begin, fb);
          uint64_t oe = std::min(iv.end, fe);
          if (ob >= oe) {
            rest.push_back(iv);
            continue;
          }
          // Fragments carry no providers: the fetch stage resolves the
          // replica set through the location index.
          out.push_back(FetchPiece{frag.pid, {}, frag.data_off + (ob - fb),
                                   oe - ob, ob});
          if (iv.begin < ob) rest.push_back(Interval{iv.begin, ob});
          if (oe < iv.end) rest.push_back(Interval{oe, iv.end});
        }
        needed = std::move(rest);
        if (needed.empty()) {
          promise.Set(std::move(out));
          return;
        }
      }
      if (cur.prev_version == kNoVersion) {
        promise.Set(Status::Corruption(
            "page bytes not covered by fragment chain at " +
            block.ToString()));
        return;
      }
      c->meta_
          .GetNodeAsync(NodeKey{ancestry.Resolve(cur.prev_version),
                                cur.prev_version, block})
          .OnReady(nullptr, [self](Result<MetaNode> next) {
            if (!next.ok()) {
              self->promise.Set(next.status());
              return;
            }
            self->cur = std::move(next).ValueUnsafe();
            self->Step(self);
          });
    }
  };
  auto op = std::make_shared<WalkOp>();
  op->c = this;
  op->ancestry = ancestry;
  op->block = block;
  op->cur = leaf;
  op->needed = std::move(needed);
  auto f = op->promise.GetFuture();
  op->Step(op);
  return f;
}

void BlobClient::RepairReplicasAsync(FetchPiece piece, size_t good) {
  // Detached best-effort chain: fetch the complete page object from the
  // replica that served the read, then re-store it on each replica that
  // failed. The guard keeps the client alive bookkeeping honest — the
  // destructor drains detached chains so they never touch a dead client.
  {
    std::lock_guard<std::mutex> lock(detached_mu_);
    // Best-effort means droppable: a degraded bulk read would otherwise
    // spawn one full-page repair per failed-over piece, ballooning memory
    // and competing with the foreground read. Pieces skipped here stay
    // repair candidates for the next read that touches them.
    if (detached_ops_ >= kMaxDetachedRepairs) return;
    detached_ops_++;
  }
  auto guard = std::shared_ptr<void>(
      nullptr, [this](void*) { EndDetachedOp(); });
  auto shared = std::make_shared<FetchPiece>(std::move(piece));
  pm_.ResolveAddressAsync(shared->providers[good])
      .Then([this, shared, guard](Result<std::string> addr)
                -> Future<std::string> {
        if (!addr.ok()) return MakeReadyFuture<std::string>(addr.status());
        // len == 0 reads through the end: the whole stored object.
        return providers_.ReadPageAsync(*addr, shared->pid, 0, 0);
      })
      .OnReady(nullptr, [this, shared, good, guard](Result<std::string> obj) {
        if (!obj.ok()) return;
        auto data = std::make_shared<std::string>(std::move(obj).ValueUnsafe());
        for (size_t j = 0; j < good; j++) {
          pm_.ResolveAddressAsync(shared->providers[j])
              .Then([this, shared, data, guard](
                        Result<std::string> addr) -> Future<Unit> {
                if (!addr.ok()) return MakeReadyFuture(addr.status());
                return providers_.WritePageAsync(*addr, shared->pid,
                                                 Slice(*data));
              })
              .OnReady(nullptr, [this, guard](Result<Unit> stored) {
                if (!stored.ok()) return;  // replica still down: stay degraded
                std::lock_guard<std::mutex> lock(stats_mu_);
                stats_.read_repairs++;
              });
        }
      });
}

Future<Unit> BlobClient::FetchPiecesIntoAsync(std::vector<FetchPiece> pieces,
                                              std::vector<uint64_t> bases,
                                              uint64_t range_offset,
                                              char* dst) {
  // Per-piece chain: resolve the page's current replica set through the
  // location index, then try replicas in order; any error (dead endpoint,
  // missing object, short read) advances to the next replica, and a success
  // after a miss triggers detached read repair. Exhausting the whole set
  // once drops the cached entry and re-resolves — the rebuilder may have
  // moved the page while this read was failing over.
  struct PieceOp {
    BlobClient* c = nullptr;
    FetchPiece piece;  // piece.providers = resolved set being tried
    char* out = nullptr;  // absolute destination for this piece's bytes
    size_t attempt = 0;
    bool refreshed = false;
    Status last_error;
    Promise<Unit> promise;

    void Start(const std::shared_ptr<PieceOp>& self) {
      c->locator_.ResolveAsync(piece.pid).OnReady(
          nullptr, [self](Result<locator::LocationEntry> e) {
            if (!e.ok()) {
              self->promise.Set(e.status());
              return;
            }
            self->piece.providers = std::move(e->providers);
            self->Step(self);
          });
    }

    void Step(const std::shared_ptr<PieceOp>& self) {
      if (attempt >= piece.providers.size()) {
        if (!refreshed) {
          Refresh(self);
          return;
        }
        promise.Set(last_error.ok()
                        ? Status::Unavailable("no replicas for page " +
                                              piece.pid.ToString())
                        : last_error);
        return;
      }
      c->pm_.ResolveAddressAsync(piece.providers[attempt])
          .Then([self](Result<std::string> addr) -> Future<std::string> {
            if (!addr.ok()) return MakeReadyFuture<std::string>(addr.status());
            return self->c->providers_.ReadPageAsync(
                *addr, self->piece.pid, self->piece.src_off, self->piece.len);
          })
          .OnReady(nullptr, [self](Result<std::string> chunk) {
            bool ok = chunk.ok() && chunk->size() == self->piece.len;
            if (!ok) {
              self->last_error = chunk.ok()
                                     ? Status::Corruption("short page read")
                                     : chunk.status();
              // Failover depth is bounded by the replica count, so the
              // inline recursion here stays shallow.
              self->attempt++;
              self->Step(self);
              return;
            }
            std::memcpy(self->out, chunk->data(), chunk->size());
            if (self->attempt > 0) {
              {
                std::lock_guard<std::mutex> lock(self->c->stats_mu_);
                self->c->stats_.failover_reads++;
              }
              self->c->RepairReplicasAsync(self->piece, self->attempt);
            }
            self->promise.Set(Unit{});
          });
    }

    // Every replica failed: drop the cached entry and re-resolve once. A
    // changed set means the rebuilder relocated the page mid-read — retry
    // from the top against the fresh replicas.
    void Refresh(const std::shared_ptr<PieceOp>& self) {
      refreshed = true;
      c->locator_.Invalidate(piece.pid);
      c->locator_.ResolveAsync(piece.pid).OnReady(
          nullptr, [self](Result<locator::LocationEntry> e) {
            if (e.ok() && e->providers != self->piece.providers) {
              {
                std::lock_guard<std::mutex> lock(self->c->stats_mu_);
                self->c->stats_.location_refreshes++;
              }
              self->piece.providers = std::move(e->providers);
              self->attempt = 0;
              self->Step(self);
              return;
            }
            self->promise.Set(self->last_error.ok()
                                  ? Status::Unavailable(
                                        "no replicas for page " +
                                        self->piece.pid.ToString())
                                  : self->last_error);
          });
    }
  };

  std::vector<std::function<Future<Unit>()>> tasks;
  tasks.reserve(pieces.size());
  for (size_t i = 0; i < pieces.size(); i++) {
    auto op = std::make_shared<PieceOp>();
    op->c = this;
    op->piece = std::move(pieces[i]);
    // Pieces cover disjoint output ranges, so the copies are safe to run
    // concurrently on completion threads.
    op->out = dst + (bases[i] + op->piece.page_local_off - range_offset);
    tasks.push_back([op] {
      Future<Unit> f = op->promise.GetFuture();
      op->Start(op);
      return f;
    });
  }
  return RunWindowed(std::move(tasks), options_.max_inflight_pages);
}

Future<std::string> BlobClient::ReadAsync(BlobId id, Version version,
                                          uint64_t offset, uint64_t size) {
  auto op = std::make_shared<ReadOp>();
  op->c = this;
  op->id = id;
  op->version = version;
  op->offset = offset;
  op->size = size;
  Future<std::string> f = op->promise.GetFuture();

  DescriptorAsync(id).OnReady(nullptr, [this, op](Result<BlobDescriptor> d) {
    if (!d.ok()) {
      op->promise.Set(d.status());
      return;
    }
    op->desc = std::move(d).ValueUnsafe();
    op->ancestry = op->desc.Ancestry();
    // GET_SIZE doubles as the publication check (paper Algorithm 1 line 1).
    vm_.GetSizeAsync(op->id, op->version)
        .OnReady(nullptr, [this, op](Result<uint64_t> blob_size) {
          if (!blob_size.ok()) {
            op->promise.Set(blob_size.status());
            return;
          }
          if (op->offset + op->size > *blob_size) {
            op->promise.Set(Status::OutOfRange(
                StrFormat("read [%llu,+%llu) beyond snapshot size %llu",
                          static_cast<unsigned long long>(op->offset),
                          static_cast<unsigned long long>(op->size),
                          static_cast<unsigned long long>(*blob_size))));
            return;
          }
          op->out.resize(op->size);
          if (op->size == 0) {
            op->promise.Set(std::move(op->out));
            return;
          }
          const Extent range{op->offset, op->size};
          meta_
              .ReadMetaAsync(op->ancestry, op->version, *blob_size,
                             op->desc.psize, range)
              .OnReady(nullptr, [this, op,
                                 range](Result<std::vector<meta::LeafRef>>
                                            leaves) {
                if (!leaves.ok()) {
                  op->promise.Set(leaves.status());
                  return;
                }
                op->leaves = std::move(leaves).ValueUnsafe();
                // Resolve fragment chains per leaf (parallel across
                // leaves), then fetch all pieces in one parallel wave.
                std::vector<Future<std::vector<FetchPiece>>> per_leaf;
                per_leaf.reserve(op->leaves.size());
                for (const meta::LeafRef& leaf : op->leaves) {
                  Extent needed_abs = leaf.block.Clip(range);
                  Interval needed{needed_abs.offset - leaf.block.offset,
                                  needed_abs.end() - leaf.block.offset};
                  per_leaf.push_back(ResolveLeafPiecesAsync(
                      op->ancestry, leaf.block, leaf.node, {needed}));
                }
                WhenAll(std::move(per_leaf))
                    .OnReady(nullptr, [this, op](
                                          Result<std::vector<
                                              Result<std::vector<FetchPiece>>>>
                                              resolved) {
                      if (!resolved.ok()) {
                        op->promise.Set(resolved.status());
                        return;
                      }
                      Status first = FirstError(*resolved);
                      if (!first.ok()) {
                        op->promise.Set(std::move(first));
                        return;
                      }
                      std::vector<FetchPiece> pieces;
                      std::vector<uint64_t> bases;
                      for (size_t i = 0; i < resolved->size(); i++) {
                        for (const FetchPiece& p : *(*resolved)[i]) {
                          pieces.push_back(p);
                          bases.push_back(op->leaves[i].block.offset);
                        }
                      }
                      FetchPiecesIntoAsync(std::move(pieces), std::move(bases),
                                           op->offset, op->out.data())
                          .OnReady(nullptr, [this, op](Result<Unit> fetched) {
                            if (!fetched.ok()) {
                              op->promise.Set(fetched.status());
                              return;
                            }
                            {
                              std::lock_guard<std::mutex> lock(stats_mu_);
                              stats_.reads++;
                              stats_.bytes_read += op->size;
                            }
                            op->promise.Set(std::move(op->out));
                          });
                    });
              });
        });
  });
  return f;
}

Future<RecentVersion> BlobClient::GetRecentAsync(BlobId id) {
  return vm_.GetRecentAsync(id);
}

Future<uint64_t> BlobClient::GetSizeAsync(BlobId id, Version version) {
  return vm_.GetSizeAsync(id, version);
}

Future<Unit> BlobClient::SyncAsync(BlobId id, Version version,
                                   uint64_t timeout_us) {
  return vm_.AwaitPublishedAsync(id, version, timeout_us);
}

Future<Unit> BlobClient::AbortAsync(BlobId id, Version version) {
  return DescriptorAsync(id).Then(
      [this, id, version](Result<BlobDescriptor> desc) -> Future<Unit> {
        if (!desc.ok()) return MakeReadyFuture(desc.status());
        BlobDescriptor d = std::move(desc).ValueUnsafe();
        return vm_.AbortUpdateAsync(id, version)
            .Then([this, id, version,
                   d](Result<vmanager::AbortOutcome> outcome) -> Future<Unit> {
              if (!outcome.ok()) return MakeReadyFuture(outcome.status());
              if (outcome->retracted) return MakeReadyFuture(Status::OK());
              // Repair: replay the aborted update as zeros (DESIGN.md 3.3)
              // so that every node key later updates may have
              // border-referenced exists.
              auto op = std::make_shared<UpdateOp>();
              op->c = this;
              op->id = id;
              op->kind = UpdateOp::Kind::kRepair;
              op->desc = d;
              op->ticket = outcome->repair;
              op->zeros.assign(op->ticket.size, '\0');
              op->data = Slice(op->zeros);
              op->offset = op->ticket.offset;
              op->batch = std::make_shared<PageWriteBatch>(
                  SplitIntoPages(op->data, op->offset, d.psize));
              return RunUpdateAsync(op, StorePagesAsync(op->batch))
                  .Then([](Result<Version> v) -> Status { return v.status(); });
            });
      });
}

// --- Synchronous facade: thin waits over the async chains. Wait parks the
// caller on an executor-provided event, so the same code blocks correctly
// on real threads and on simnet tasks. ---

Result<BlobId> BlobClient::Create(uint64_t psize) {
  return CreateAsync(psize).Wait(executor_);
}

Result<BlobDescriptor> BlobClient::Open(BlobId id) {
  return OpenAsync(id).Wait(executor_);
}

Result<Version> BlobClient::Write(BlobId id, Slice data, uint64_t offset) {
  return WriteAsync(id, data, offset).Wait(executor_);
}

Result<Version> BlobClient::Append(BlobId id, Slice data) {
  return AppendAsync(id, data).Wait(executor_);
}

Status BlobClient::Read(BlobId id, Version version, uint64_t offset,
                        uint64_t size, std::string* out) {
  auto r = ReadAsync(id, version, offset, size).Wait(executor_);
  if (!r.ok()) return r.status();
  *out = std::move(r).ValueUnsafe();
  return Status::OK();
}

Result<RecentVersion> BlobClient::GetRecent(BlobId id) {
  return GetRecentAsync(id).Wait(executor_);
}

Result<uint64_t> BlobClient::GetSize(BlobId id, Version version) {
  return GetSizeAsync(id, version).Wait(executor_);
}

Status BlobClient::Sync(BlobId id, Version version, uint64_t timeout_us) {
  return SyncAsync(id, version, timeout_us).Wait(executor_).status();
}

Status BlobClient::Abort(BlobId id, Version version) {
  return AbortAsync(id, version).Wait(executor_).status();
}

Result<BlobId> BlobClient::Branch(BlobId id, Version version) {
  auto desc = vm_.BranchAsync(id, version).Wait(executor_);
  if (!desc.ok()) return desc.status();
  std::lock_guard<std::mutex> lock(mu_);
  BlobId bid = desc->id;
  descriptors_[bid] = std::move(desc).ValueUnsafe();
  return bid;
}

ClientStats BlobClient::GetStats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace blobseer::client
