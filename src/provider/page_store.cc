#include "provider/page_store.h"

namespace blobseer::provider {

namespace {

class MemoryPageStore : public PageStore {
 public:
  Status Put(const PageId& id, Slice data) override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.writes++;
    auto it = pages_.find(id);
    if (it != pages_.end()) {
      if (it->second.size() == data.size()) return Status::OK();
      return Status::AlreadyExists("page object rewritten with new content: " +
                                   id.ToString());
    }
    pages_.emplace(id, data.ToString());
    stats_.pages++;
    stats_.bytes += data.size();
    return Status::OK();
  }

  Status Read(const PageId& id, uint64_t offset, uint64_t len,
              std::string* out) override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.reads++;
    auto it = pages_.find(id);
    if (it == pages_.end()) return Status::NotFound("page " + id.ToString());
    BS_RETURN_NOT_OK(CheckReadRange(it->second.size(), offset, &len));
    out->assign(it->second.data() + offset, len);
    return Status::OK();
  }

  Status Delete(const PageId& id) override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.deletes++;
    auto it = pages_.find(id);
    if (it != pages_.end()) {
      stats_.bytes -= it->second.size();
      stats_.pages--;
      pages_.erase(it);
    }
    return Status::OK();
  }

  PageStoreStats GetStats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<PageId, std::string> pages_;
  PageStoreStats stats_;
};

class NullPageStore : public PageStore {
 public:
  Status Put(const PageId& id, Slice data) override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.writes++;
    auto [it, inserted] = sizes_.emplace(id, data.size());
    if (!inserted && it->second != data.size())
      return Status::AlreadyExists("page object rewritten");
    if (inserted) {
      stats_.pages++;
      stats_.bytes += data.size();
    }
    return Status::OK();
  }

  Status Read(const PageId& id, uint64_t offset, uint64_t len,
              std::string* out) override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.reads++;
    auto it = sizes_.find(id);
    if (it == sizes_.end()) return Status::NotFound("page " + id.ToString());
    BS_RETURN_NOT_OK(CheckReadRange(it->second, offset, &len));
    out->assign(len, '\0');
    return Status::OK();
  }

  Status Delete(const PageId& id) override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.deletes++;
    auto it = sizes_.find(id);
    if (it != sizes_.end()) {
      stats_.bytes -= it->second;
      stats_.pages--;
      sizes_.erase(it);
    }
    return Status::OK();
  }

  PageStoreStats GetStats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<PageId, uint64_t> sizes_;
  PageStoreStats stats_;
};

}  // namespace

std::unique_ptr<PageStore> MakeMemoryPageStore() {
  return std::make_unique<MemoryPageStore>();
}
std::unique_ptr<PageStore> MakeNullPageStore() {
  return std::make_unique<NullPageStore>();
}

}  // namespace blobseer::provider
