#include "baseline/central_meta.h"

#include "common/math_util.h"
#include "rpc/call.h"

namespace blobseer::baseline {

Status CentralMetaService::Handle(rpc::Method method, Slice payload,
                                  std::string* response) {
  using rpc::DispatchTyped;
  switch (method) {
    case rpc::Method::kCentralCreate:
      return DispatchTyped<CreateRequest, CreateResponse>(
          payload, response, [this](const CreateRequest& req, CreateResponse* rsp) {
            if (!IsPow2(req.psize))
              return Status::InvalidArgument("psize must be a power of two");
            std::lock_guard<std::mutex> lock(mu_);
            BlobState st;
            st.psize = req.psize;
            st.versions.push_back(
                std::make_shared<const std::vector<PageRef>>());
            st.sizes.push_back(0);
            rsp->id = next_id_;
            blobs_.emplace(next_id_++, std::move(st));
            return Status::OK();
          });
    case rpc::Method::kCentralUpdate:
      return DispatchTyped<UpdateRequest, UpdateResponse>(
          payload, response, [this](const UpdateRequest& req, UpdateResponse* rsp) {
            uint64_t copied = 0;
            {
              std::lock_guard<std::mutex> lock(mu_);
              auto it = blobs_.find(req.id);
              if (it == blobs_.end()) return Status::NotFound("blob");
              BlobState& st = it->second;
              // Deep copy of the predecessor's full page table: this is
              // the O(total pages) cost per update that BlobSeer's shared
              // segment trees avoid.
              auto table = std::make_shared<std::vector<PageRef>>(
                  *st.versions.back());
              uint64_t needed = req.first_page + req.refs.size();
              if (table->size() < needed) table->resize(needed);
              for (size_t i = 0; i < req.refs.size(); i++) {
                (*table)[req.first_page + i] = req.refs[i];
              }
              copied = table->size();
              total_page_refs_ += copied;
              total_versions_++;
              st.sizes.push_back(std::max(st.sizes.back(), req.new_size));
              rsp->new_size = st.sizes.back();
              st.versions.push_back(std::move(table));
              rsp->version = st.versions.size() - 1;
            }
            // Outside the lock: the hook may suspend the (simulated) task.
            if (cost_hook_) cost_hook_(copied);
            return Status::OK();
          });
    case rpc::Method::kCentralGetLayout:
      return DispatchTyped<LayoutRequest, LayoutResponse>(
          payload, response, [this](const LayoutRequest& req, LayoutResponse* rsp) {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = blobs_.find(req.id);
            if (it == blobs_.end()) return Status::NotFound("blob");
            const BlobState& st = it->second;
            if (req.version >= st.versions.size())
              return Status::NotFound("version not published");
            const auto& table = *st.versions[req.version];
            if (req.first_page + req.num_pages > table.size())
              return Status::OutOfRange("layout range");
            rsp->refs.assign(table.begin() + req.first_page,
                             table.begin() + req.first_page + req.num_pages);
            return Status::OK();
          });
    case rpc::Method::kCentralGetRecent:
      return DispatchTyped<RecentRequest, RecentResponse>(
          payload, response, [this](const RecentRequest& req, RecentResponse* rsp) {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = blobs_.find(req.id);
            if (it == blobs_.end()) return Status::NotFound("blob");
            rsp->version = it->second.versions.size() - 1;
            rsp->size = it->second.sizes.back();
            return Status::OK();
          });
    default:
      return Status::NotSupported("central meta method");
  }
}

CentralMetaStats CentralMetaService::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CentralMetaStats st;
  st.blobs = blobs_.size();
  st.versions = total_versions_;
  st.page_refs = total_page_refs_;
  return st;
}

CentralMetaClient::CentralMetaClient(rpc::Transport* transport,
                                     std::string address, size_t channels)
    : address_(std::move(address)), pool_(transport, channels) {}

template <typename Rsp, typename Req>
Future<Rsp> CentralMetaClient::Call(rpc::Method method, const Req& req) {
  auto ch = pool_.Get(address_);
  if (!ch.ok()) return MakeReadyFuture<Rsp>(ch.status());
  return rpc::CallMethodAsync<Req, Rsp>(ch->get(), method, req);
}

Future<BlobId> CentralMetaClient::CreateAsync(uint64_t psize) {
  return Call<CreateResponse>(rpc::Method::kCentralCreate,
                              CreateRequest{psize})
      .Then([](Result<CreateResponse> rsp) -> Result<BlobId> {
        if (!rsp.ok()) return rsp.status();
        return rsp->id;
      });
}

Future<UpdateResponse> CentralMetaClient::UpdateAsync(
    BlobId id, uint64_t first_page, std::vector<PageRef> refs,
    uint64_t new_size) {
  return Call<UpdateResponse>(
      rpc::Method::kCentralUpdate,
      UpdateRequest{id, first_page, new_size, std::move(refs)});
}

Future<std::vector<PageRef>> CentralMetaClient::GetLayoutAsync(
    BlobId id, Version version, uint64_t first_page, uint64_t num_pages) {
  return Call<LayoutResponse>(rpc::Method::kCentralGetLayout,
                              LayoutRequest{id, version, first_page, num_pages})
      .Then([](Result<LayoutResponse> rsp) -> Result<std::vector<PageRef>> {
        if (!rsp.ok()) return rsp.status();
        return std::move(rsp->refs);
      });
}

Future<RecentResponse> CentralMetaClient::GetRecentAsync(BlobId id) {
  return Call<RecentResponse>(rpc::Method::kCentralGetRecent,
                              RecentRequest{id});
}

}  // namespace blobseer::baseline
