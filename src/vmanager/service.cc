#include "vmanager/service.h"

#include "rpc/call.h"
#include "vmanager/messages.h"

namespace blobseer::vmanager {

Status VersionManagerService::Handle(rpc::Method method, Slice payload,
                                     std::string* response) {
  using rpc::DispatchTyped;
  switch (method) {
    case rpc::Method::kVmCreateBlob:
      return DispatchTyped<CreateBlobRequest, CreateBlobResponse>(
          payload, response,
          [this](const CreateBlobRequest& req, CreateBlobResponse* rsp) {
            auto d = core_->CreateBlob(req.psize);
            if (!d.ok()) return d.status();
            rsp->descriptor = std::move(d).ValueUnsafe();
            return Status::OK();
          });
    case rpc::Method::kVmOpenBlob:
      return DispatchTyped<OpenBlobRequest, OpenBlobResponse>(
          payload, response,
          [this](const OpenBlobRequest& req, OpenBlobResponse* rsp) {
            auto d = core_->OpenBlob(req.id, &rsp->published,
                                    &rsp->published_size);
            if (!d.ok()) return d.status();
            rsp->descriptor = std::move(d).ValueUnsafe();
            return Status::OK();
          });
    case rpc::Method::kVmAssignVersion:
      return DispatchTyped<AssignRequest, AssignResponse>(
          payload, response,
          [this](const AssignRequest& req, AssignResponse* rsp) {
            auto t = core_->AssignVersion(req.id, req.is_append, req.offset,
                                         req.size);
            if (!t.ok()) return t.status();
            rsp->ticket = std::move(t).ValueUnsafe();
            return Status::OK();
          });
    case rpc::Method::kVmNotifySuccess:
      return DispatchTyped<NotifyRequest, rpc::Empty>(
          payload, response, [this](const NotifyRequest& req, rpc::Empty*) {
            return core_->NotifySuccess(req.id, req.version);
          });
    case rpc::Method::kVmAbortUpdate:
      return DispatchTyped<AbortRequest, AbortResponse>(
          payload, response, [this](const AbortRequest& req, AbortResponse* rsp) {
            auto o = core_->AbortUpdate(req.id, req.version);
            if (!o.ok()) return o.status();
            rsp->outcome = std::move(o).ValueUnsafe();
            return Status::OK();
          });
    case rpc::Method::kVmGetRecent:
      return DispatchTyped<GetRecentRequest, GetRecentResponse>(
          payload, response,
          [this](const GetRecentRequest& req, GetRecentResponse* rsp) {
            return core_->GetRecent(req.id, &rsp->version, &rsp->size);
          });
    case rpc::Method::kVmGetSize:
      return DispatchTyped<GetSizeRequest, GetSizeResponse>(
          payload, response,
          [this](const GetSizeRequest& req, GetSizeResponse* rsp) {
            auto s = core_->GetSize(req.id, req.version);
            if (!s.ok()) return s.status();
            rsp->size = *s;
            return Status::OK();
          });
    case rpc::Method::kVmAwaitPublished:
      return DispatchTyped<AwaitRequest, AwaitResponse>(
          payload, response, [this](const AwaitRequest& req, AwaitResponse* rsp) {
            Status s = core_->AwaitPublished(req.id, req.version, req.timeout_us);
            if (s.ok()) {
              rsp->published = true;
              return Status::OK();
            }
            if (s.IsTimedOut()) {
              rsp->published = false;
              return Status::OK();
            }
            return s;
          });
    case rpc::Method::kVmBranch:
      return DispatchTyped<BranchRequest, BranchResponse>(
          payload, response, [this](const BranchRequest& req, BranchResponse* rsp) {
            auto d = core_->Branch(req.id, req.version);
            if (!d.ok()) return d.status();
            rsp->descriptor = std::move(d).ValueUnsafe();
            return Status::OK();
          });
    case rpc::Method::kVmStats:
      return DispatchTyped<rpc::Empty, VmStats>(
          payload, response, [this](const rpc::Empty&, VmStats* rsp) {
            *rsp = core_->GetStats();
            return Status::OK();
          });
    case rpc::Method::kVmSetRetention:
      return DispatchTyped<SetRetentionRequest, rpc::Empty>(
          payload, response,
          [this](const SetRetentionRequest& req, rpc::Empty*) {
            return core_->SetRetention(req.id, req.policy);
          });
    case rpc::Method::kVmGetRetention:
      return DispatchTyped<GetRetentionRequest, GetRetentionResponse>(
          payload, response,
          [this](const GetRetentionRequest& req, GetRetentionResponse* rsp) {
            auto p = core_->GetRetention(req.id);
            if (!p.ok()) return p.status();
            rsp->policy = *p;
            return Status::OK();
          });
    case rpc::Method::kVmListVersions:
      return DispatchTyped<ListVersionsRequest, ListVersionsResponse>(
          payload, response,
          [this](const ListVersionsRequest& req, ListVersionsResponse* rsp) {
            auto v = core_->ListVersions(req.id);
            if (!v.ok()) return v.status();
            rsp->versions = std::move(v).ValueUnsafe();
            return Status::OK();
          });
    case rpc::Method::kVmDiscardVersion:
      return DispatchTyped<DiscardVersionRequest, rpc::Empty>(
          payload, response,
          [this](const DiscardVersionRequest& req, rpc::Empty*) {
            return core_->DiscardVersion(req.id, req.version);
          });
    case rpc::Method::kVmListBlobs:
      return DispatchTyped<rpc::Empty, ListBlobsResponse>(
          payload, response,
          [this](const rpc::Empty&, ListBlobsResponse* rsp) {
            auto b = core_->ListBlobs();
            if (!b.ok()) return b.status();
            rsp->blobs = std::move(b).ValueUnsafe();
            return Status::OK();
          });
    default:
      return Status::NotSupported("vmanager method");
  }
}

bool VersionManagerService::Blocks(rpc::Method method) const {
  switch (method) {
    case rpc::Method::kVmGetSize:
    case rpc::Method::kVmGetRecent:
    case rpc::Method::kVmOpenBlob:
    case rpc::Method::kVmAssignVersion:
    case rpc::Method::kVmNotifySuccess:
    case rpc::Method::kVmAbortUpdate:
      return false;
    case rpc::Method::kVmAwaitPublished:
      return timer_executor_ == nullptr;
    default:
      return true;
  }
}

void VersionManagerService::HandleAsync(rpc::Method method, Slice payload,
                                        rpc::HandlerDone done) {
  if (method != rpc::Method::kVmAwaitPublished) {
    ServiceHandler::HandleAsync(method, payload, std::move(done));
    return;
  }
  AwaitRequest req;
  if (Status ds = DecodePayload(payload, &req); !ds.ok()) {
    done(std::move(ds), std::string());
    return;
  }
  // A probe never parks; a finite timeout needs a watchdog, so without a
  // timer executor the blocking wait is the only correct behavior left.
  bool finite = req.timeout_us != UINT64_MAX;
  if (req.timeout_us == 0 || (finite && timer_executor_ == nullptr)) {
    std::string response;
    Status st = Handle(method, payload, &response);
    done(std::move(st), std::move(response));
    return;
  }

  auto respond = [done = std::move(done)](Status s) {
    AwaitResponse rsp;
    if (s.ok()) {
      rsp.published = true;
    } else if (s.IsTimedOut()) {
      rsp.published = false;
    } else {
      done(std::move(s), std::string());
      return;
    }
    done(Status::OK(), EncodePayload(rsp));
  };

  uint64_t token = core_->SubscribePublished(req.id, req.version,
                                             std::move(respond));
  if (token == 0 || !finite) return;  // resolved inline, or waits forever

  // Timeout watchdog: sleeps in bounded chunks so a real-clock teardown
  // never stalls behind a long timeout, and re-checks the registry so a
  // subscription resolved by publication costs nothing further. Captures
  // the core by shared_ptr — it may outrun the service.
  timer_executor_->Schedule(
      [core = core_, clock = clock_, token, remaining = req.timeout_us]() mutable {
        constexpr uint64_t kChunkUs = 50 * 1000;
        while (remaining > 0 && core->HasWaiter(token)) {
          uint64_t chunk = remaining < kChunkUs ? remaining : kChunkUs;
          clock->SleepForMicros(chunk);
          remaining -= chunk;
        }
        core->CancelWaiter(token, Status::TimedOut("not yet published"));
      });
}

}  // namespace blobseer::vmanager
