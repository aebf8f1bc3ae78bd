// Wire messages for the version manager service.
#ifndef BLOBSEER_VMANAGER_MESSAGES_H_
#define BLOBSEER_VMANAGER_MESSAGES_H_

#include "common/blob_descriptor.h"
#include "common/serde.h"
#include "vmanager/core.h"

namespace blobseer::vmanager {

struct CreateBlobRequest {
  uint64_t psize = 0;
  void EncodeTo(BinaryWriter* w) const { w->PutU64(psize); }
  Status DecodeFrom(BinaryReader* r) { return r->GetU64(&psize); }
};

struct CreateBlobResponse {
  BlobDescriptor descriptor;
  void EncodeTo(BinaryWriter* w) const { descriptor.EncodeTo(w); }
  Status DecodeFrom(BinaryReader* r) { return descriptor.DecodeFrom(r); }
};

struct OpenBlobRequest {
  BlobId id = kInvalidBlobId;
  void EncodeTo(BinaryWriter* w) const { w->PutU64(id); }
  Status DecodeFrom(BinaryReader* r) { return r->GetU64(&id); }
};

struct OpenBlobResponse {
  BlobDescriptor descriptor;
  Version published = 0;
  uint64_t published_size = 0;
  void EncodeTo(BinaryWriter* w) const {
    descriptor.EncodeTo(w);
    w->PutU64(published);
    w->PutU64(published_size);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(descriptor.DecodeFrom(r));
    BS_RETURN_NOT_OK(r->GetU64(&published));
    return r->GetU64(&published_size);
  }
};

struct AssignRequest {
  BlobId id = kInvalidBlobId;
  bool is_append = false;
  uint64_t offset = 0;
  uint64_t size = 0;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU64(id);
    w->PutBool(is_append);
    w->PutU64(offset);
    w->PutU64(size);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetU64(&id));
    BS_RETURN_NOT_OK(r->GetBool(&is_append));
    BS_RETURN_NOT_OK(r->GetU64(&offset));
    return r->GetU64(&size);
  }
};

struct AssignResponse {
  AssignTicket ticket;
  void EncodeTo(BinaryWriter* w) const { ticket.EncodeTo(w); }
  Status DecodeFrom(BinaryReader* r) { return ticket.DecodeFrom(r); }
};

struct NotifyRequest {
  BlobId id = kInvalidBlobId;
  Version version = kNoVersion;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU64(id);
    w->PutU64(version);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetU64(&id));
    return r->GetU64(&version);
  }
};

struct AbortRequest {
  BlobId id = kInvalidBlobId;
  Version version = kNoVersion;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU64(id);
    w->PutU64(version);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetU64(&id));
    return r->GetU64(&version);
  }
};

struct AbortResponse {
  AbortOutcome outcome;
  void EncodeTo(BinaryWriter* w) const { outcome.EncodeTo(w); }
  Status DecodeFrom(BinaryReader* r) { return outcome.DecodeFrom(r); }
};

struct GetRecentRequest {
  BlobId id = kInvalidBlobId;
  void EncodeTo(BinaryWriter* w) const { w->PutU64(id); }
  Status DecodeFrom(BinaryReader* r) { return r->GetU64(&id); }
};

struct GetRecentResponse {
  Version version = 0;
  uint64_t size = 0;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU64(version);
    w->PutU64(size);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetU64(&version));
    return r->GetU64(&size);
  }
};

struct GetSizeRequest {
  BlobId id = kInvalidBlobId;
  Version version = kNoVersion;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU64(id);
    w->PutU64(version);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetU64(&id));
    return r->GetU64(&version);
  }
};

struct GetSizeResponse {
  uint64_t size = 0;
  void EncodeTo(BinaryWriter* w) const { w->PutU64(size); }
  Status DecodeFrom(BinaryReader* r) { return r->GetU64(&size); }
};

struct AwaitRequest {
  BlobId id = kInvalidBlobId;
  Version version = kNoVersion;
  uint64_t timeout_us = 0;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU64(id);
    w->PutU64(version);
    w->PutU64(timeout_us);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetU64(&id));
    BS_RETURN_NOT_OK(r->GetU64(&version));
    return r->GetU64(&timeout_us);
  }
};

struct AwaitResponse {
  bool published = false;
  void EncodeTo(BinaryWriter* w) const { w->PutBool(published); }
  Status DecodeFrom(BinaryReader* r) { return r->GetBool(&published); }
};

struct BranchRequest {
  BlobId id = kInvalidBlobId;
  Version version = kNoVersion;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU64(id);
    w->PutU64(version);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetU64(&id));
    return r->GetU64(&version);
  }
};

struct BranchResponse {
  BlobDescriptor descriptor;
  void EncodeTo(BinaryWriter* w) const { descriptor.EncodeTo(w); }
  Status DecodeFrom(BinaryReader* r) { return descriptor.DecodeFrom(r); }
};

struct SetRetentionRequest {
  BlobId id = kInvalidBlobId;
  lifecycle::RetentionPolicy policy;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU64(id);
    policy.EncodeTo(w);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetU64(&id));
    return policy.DecodeFrom(r);
  }
};

struct GetRetentionRequest {
  BlobId id = kInvalidBlobId;
  void EncodeTo(BinaryWriter* w) const { w->PutU64(id); }
  Status DecodeFrom(BinaryReader* r) { return r->GetU64(&id); }
};

struct GetRetentionResponse {
  lifecycle::RetentionPolicy policy;
  void EncodeTo(BinaryWriter* w) const { policy.EncodeTo(w); }
  Status DecodeFrom(BinaryReader* r) { return policy.DecodeFrom(r); }
};

struct ListVersionsRequest {
  BlobId id = kInvalidBlobId;
  void EncodeTo(BinaryWriter* w) const { w->PutU64(id); }
  Status DecodeFrom(BinaryReader* r) { return r->GetU64(&id); }
};

struct ListVersionsResponse {
  std::vector<VersionInfo> versions;
  void EncodeTo(BinaryWriter* w) const { PutVector(w, versions); }
  Status DecodeFrom(BinaryReader* r) { return GetVector(r, &versions); }
};

struct DiscardVersionRequest {
  BlobId id = kInvalidBlobId;
  Version version = kNoVersion;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU64(id);
    w->PutU64(version);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetU64(&id));
    return r->GetU64(&version);
  }
};

struct ListBlobsResponse {
  std::vector<BlobId> blobs;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU32(static_cast<uint32_t>(blobs.size()));
    for (BlobId id : blobs) w->PutU64(id);
  }
  Status DecodeFrom(BinaryReader* r) {
    uint32_t n = 0;
    BS_RETURN_NOT_OK(r->GetU32(&n));
    if (static_cast<uint64_t>(n) * 8 > r->remaining())
      return Status::Corruption("blob count exceeds payload");
    blobs.resize(n);
    for (auto& id : blobs) BS_RETURN_NOT_OK(r->GetU64(&id));
    return Status::OK();
  }
};

}  // namespace blobseer::vmanager

#endif  // BLOBSEER_VMANAGER_MESSAGES_H_
