// Wire messages for the version manager service.
#ifndef BLOBSEER_VMANAGER_MESSAGES_H_
#define BLOBSEER_VMANAGER_MESSAGES_H_

#include "common/blob_descriptor.h"
#include "common/serde.h"
#include "vmanager/core.h"

namespace blobseer::vmanager {

struct CreateBlobRequest {
  uint64_t psize = 0;
  BS_FIELDS(CreateBlobRequest, psize)
};

struct CreateBlobResponse {
  BlobDescriptor descriptor;
  BS_FIELDS(CreateBlobResponse, descriptor)
};

struct OpenBlobRequest {
  BlobId id = kInvalidBlobId;
  BS_FIELDS(OpenBlobRequest, id)
};

struct OpenBlobResponse {
  BlobDescriptor descriptor;
  Version published = 0;
  uint64_t published_size = 0;
  BS_FIELDS(OpenBlobResponse, descriptor, published, published_size)
};

struct AssignRequest {
  BlobId id = kInvalidBlobId;
  bool is_append = false;
  uint64_t offset = 0;
  uint64_t size = 0;
  BS_FIELDS(AssignRequest, id, is_append, offset, size)
};

struct AssignResponse {
  AssignTicket ticket;
  BS_FIELDS(AssignResponse, ticket)
};

struct NotifyRequest {
  BlobId id = kInvalidBlobId;
  Version version = kNoVersion;
  BS_FIELDS(NotifyRequest, id, version)
};

struct AbortRequest {
  BlobId id = kInvalidBlobId;
  Version version = kNoVersion;
  BS_FIELDS(AbortRequest, id, version)
};

struct AbortResponse {
  AbortOutcome outcome;
  BS_FIELDS(AbortResponse, outcome)
};

struct GetRecentRequest {
  BlobId id = kInvalidBlobId;
  BS_FIELDS(GetRecentRequest, id)
};

struct GetRecentResponse {
  Version version = 0;
  uint64_t size = 0;
  BS_FIELDS(GetRecentResponse, version, size)
};

struct GetSizeRequest {
  BlobId id = kInvalidBlobId;
  Version version = kNoVersion;
  BS_FIELDS(GetSizeRequest, id, version)
};

struct GetSizeResponse {
  uint64_t size = 0;
  BS_FIELDS(GetSizeResponse, size)
};

struct AwaitRequest {
  BlobId id = kInvalidBlobId;
  Version version = kNoVersion;
  uint64_t timeout_us = 0;
  BS_FIELDS(AwaitRequest, id, version, timeout_us)
};

struct AwaitResponse {
  bool published = false;
  BS_FIELDS(AwaitResponse, published)
};

struct BranchRequest {
  BlobId id = kInvalidBlobId;
  Version version = kNoVersion;
  BS_FIELDS(BranchRequest, id, version)
};

struct BranchResponse {
  BlobDescriptor descriptor;
  BS_FIELDS(BranchResponse, descriptor)
};

struct SetRetentionRequest {
  BlobId id = kInvalidBlobId;
  lifecycle::RetentionPolicy policy;
  BS_FIELDS(SetRetentionRequest, id, policy)
};

struct GetRetentionRequest {
  BlobId id = kInvalidBlobId;
  BS_FIELDS(GetRetentionRequest, id)
};

struct GetRetentionResponse {
  lifecycle::RetentionPolicy policy;
  BS_FIELDS(GetRetentionResponse, policy)
};

struct ListVersionsRequest {
  BlobId id = kInvalidBlobId;
  BS_FIELDS(ListVersionsRequest, id)
};

struct ListVersionsResponse {
  std::vector<VersionInfo> versions;
  BS_FIELDS(ListVersionsResponse, versions)
};

struct DiscardVersionRequest {
  BlobId id = kInvalidBlobId;
  Version version = kNoVersion;
  BS_FIELDS(DiscardVersionRequest, id, version)
};

struct ListBlobsResponse {
  std::vector<BlobId> blobs;
  BS_FIELDS(ListBlobsResponse, blobs)
};

}  // namespace blobseer::vmanager

#endif  // BLOBSEER_VMANAGER_MESSAGES_H_
