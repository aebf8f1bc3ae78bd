// Wire messages for the data provider service.
#ifndef BLOBSEER_PROVIDER_MESSAGES_H_
#define BLOBSEER_PROVIDER_MESSAGES_H_

#include <string>

#include "common/serde.h"

namespace blobseer::provider {

struct WriteRequest {
  PageId pid;
  std::string data;
  void EncodeTo(BinaryWriter* w) const {
    w->PutPageId(pid);
    w->PutString(data);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetPageId(&pid));
    return r->GetString(&data);
  }
};

struct ReadRequest {
  PageId pid;
  uint64_t offset = 0;
  uint64_t len = 0;  // 0 = through end of object
  void EncodeTo(BinaryWriter* w) const {
    w->PutPageId(pid);
    w->PutU64(offset);
    w->PutU64(len);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetPageId(&pid));
    BS_RETURN_NOT_OK(r->GetU64(&offset));
    return r->GetU64(&len);
  }
};

struct ReadResponse {
  std::string data;
  void EncodeTo(BinaryWriter* w) const { w->PutString(data); }
  Status DecodeFrom(BinaryReader* r) { return r->GetString(&data); }
};

struct DeleteRequest {
  PageId pid;
  void EncodeTo(BinaryWriter* w) const { w->PutPageId(pid); }
  Status DecodeFrom(BinaryReader* r) { return r->GetPageId(&pid); }
};

}  // namespace blobseer::provider

#endif  // BLOBSEER_PROVIDER_MESSAGES_H_
