// Wire messages for the data provider service.
#ifndef BLOBSEER_PROVIDER_MESSAGES_H_
#define BLOBSEER_PROVIDER_MESSAGES_H_

#include <string>

#include "common/serde.h"

namespace blobseer::provider {

struct WriteRequest {
  PageId pid;
  std::string data;
  BS_FIELDS(WriteRequest, pid, data)
};

struct ReadRequest {
  PageId pid;
  uint64_t offset = 0;
  uint64_t len = 0;  // 0 = through end of object
  BS_FIELDS(ReadRequest, pid, offset, len)
};

struct ReadResponse {
  std::string data;
  BS_FIELDS(ReadResponse, data)
};

struct DeleteRequest {
  PageId pid;
  BS_FIELDS(DeleteRequest, pid)
};

}  // namespace blobseer::provider

#endif  // BLOBSEER_PROVIDER_MESSAGES_H_
