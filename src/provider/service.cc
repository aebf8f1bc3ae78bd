#include "provider/service.h"

#include <chrono>
#include <utility>

#include "pmanager/client.h"
#include "provider/messages.h"
#include "rpc/call.h"

namespace blobseer::provider {

// Shared state of the heartbeat sender loop. The loop task owns this via
// shared_ptr, so Stop/destruction never races a beat in flight; `done` is
// an executor-provided event (real condvar or sim condition), making the
// stop handshake correct on OS threads and under virtual time alike.
struct ProviderService::HeartbeatLoop {
  std::atomic<bool> stop{false};
  std::shared_ptr<WaitEvent> done;
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> failures{0};
  HeartbeatConfig config;
  std::unique_ptr<pmanager::ProviderManagerClient> pm;
};

ProviderService::ProviderService(std::unique_ptr<PageStore> store)
    : store_(std::move(store)) {}

ProviderService::~ProviderService() {
  StopHeartbeat();
  StopPeriodicCompaction();
}

void ProviderService::StartHeartbeat(Executor* executor, Clock* clock,
                                     HeartbeatConfig config) {
  if (config.interval_us == 0 || config.transport == nullptr) return;
  StopHeartbeat();  // restart harnesses re-arm the sender
  auto loop = std::make_shared<HeartbeatLoop>();
  loop->done = executor->MakeWaitEvent();
  loop->config = std::move(config);
  loop->pm = std::make_unique<pmanager::ProviderManagerClient>(
      loop->config.transport, loop->config.pmanager_address,
      /*channels=*/1);
  hb_ = loop;
  // The raw store pointer is safe: the destructor stops the loop (and
  // waits on `done`) before `store_` is destroyed.
  executor->Schedule([loop, clock, executor, store = store_.get()] {
    uint64_t sleep_us = loop->config.initial_delay_us
                            ? loop->config.initial_delay_us
                            : loop->config.interval_us;
    while (!loop->stop.load(std::memory_order_acquire)) {
      clock->SleepForMicros(sleep_us);
      sleep_us = loop->config.interval_us;
      if (loop->stop.load(std::memory_order_acquire)) break;
      PageStoreStats st = store->GetStats();
      Status s = loop->pm->HeartbeatAsync(loop->config.id, st.pages, st.bytes)
                     .Wait(executor)
                     .status();
      if (s.IsNotFound()) {
        // The provider manager does not know us (it restarted with an
        // empty registry): re-register under the same address, which
        // also refreshes liveness.
        auto id = loop->pm
                      ->RegisterAsync(loop->config.self_address,
                                      loop->config.capacity_pages)
                      .Wait(executor);
        if (id.ok()) {
          loop->config.id = *id;
          s = Status::OK();
        }
      }
      if (s.ok()) {
        loop->sent.fetch_add(1, std::memory_order_relaxed);
      } else {
        loop->failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
    loop->done->Signal();
  });
}

void ProviderService::RequestStopHeartbeat() {
  if (!hb_) return;
  hb_->stop.store(true, std::memory_order_release);
}

void ProviderService::StopHeartbeat() {
  if (!hb_) return;
  hb_->stop.store(true, std::memory_order_release);
  // At most one beat interval away: the loop re-checks stop right after
  // its clock sleep. Await is signal-before-await safe, so a second Stop
  // (destructor after an explicit Stop) returns immediately. The loop
  // record stays so the beat counters remain readable after Stop.
  hb_->done->Await();
}

uint64_t ProviderService::heartbeats_sent() const {
  return hb_ ? hb_->sent.load(std::memory_order_relaxed) : 0;
}

uint64_t ProviderService::heartbeat_failures() const {
  return hb_ ? hb_->failures.load(std::memory_order_relaxed) : 0;
}

void ProviderService::StartPeriodicCompaction(Executor* executor,
                                              uint64_t interval_us) {
  if (loop_ || interval_us == 0) return;
  loop_ = std::make_shared<CompactionLoop>();
  // The raw store pointer is safe: the destructor stops the loop (and
  // waits for `done`) before `store_` is destroyed.
  executor->Schedule([loop = loop_, store = store_.get(), interval_us] {
    std::unique_lock<std::mutex> lock(loop->mu);
    while (!loop->stop) {
      if (loop->cv.wait_for(lock, std::chrono::microseconds(interval_us),
                            [&] { return loop->stop; })) {
        break;
      }
      lock.unlock();
      // Compact() is safe against concurrent reads/writes by contract;
      // errors are reported by the store's own stats, not fatal here.
      (void)store->Compact();
      loop->passes.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
    }
    loop->done = true;
    loop->cv.notify_all();
  });
}

void ProviderService::StopPeriodicCompaction() {
  if (!loop_) return;
  std::unique_lock<std::mutex> lock(loop_->mu);
  loop_->stop = true;
  loop_->cv.notify_all();
  // The loop record stays (compaction_passes remains readable); only the
  // running task is torn down.
  loop_->cv.wait(lock, [&] { return loop_->done; });
}

uint64_t ProviderService::compaction_passes() const {
  return loop_ ? loop_->passes.load(std::memory_order_relaxed) : 0;
}

bool ProviderService::Blocks(rpc::Method method) const {
  return method != rpc::Method::kProviderRead;
}

Status ProviderService::Handle(rpc::Method method, Slice payload,
                               std::string* response) {
  using rpc::DispatchTyped;
  switch (method) {
    case rpc::Method::kProviderWrite:
      return DispatchTyped<WriteRequest, rpc::Empty>(
          payload, response, [this](const WriteRequest& req, rpc::Empty*) {
            return store_->Put(req.pid, Slice(req.data));
          });
    case rpc::Method::kProviderRead:
      return DispatchTyped<ReadRequest, ReadResponse>(
          payload, response, [this](const ReadRequest& req, ReadResponse* rsp) {
            return store_->Read(req.pid, req.offset, req.len, &rsp->data);
          });
    case rpc::Method::kProviderDelete:
      return DispatchTyped<DeleteRequest, rpc::Empty>(
          payload, response,
          [this](const DeleteRequest& req, rpc::Empty*) {
            return store_->Delete(req.pid);
          });
    case rpc::Method::kProviderStats:
      return DispatchTyped<rpc::Empty, PageStoreStats>(
          payload, response, [this](const rpc::Empty&, PageStoreStats* rsp) {
            *rsp = store_->GetStats();
            return Status::OK();
          });
    default:
      return Status::NotSupported("provider method");
  }
}

}  // namespace blobseer::provider
