// Wire messages for the DHT (metadata provider) service.
#ifndef BLOBSEER_DHT_MESSAGES_H_
#define BLOBSEER_DHT_MESSAGES_H_

#include <string>
#include <vector>

#include "common/serde.h"

namespace blobseer::dht {

struct PutRequest {
  std::string key;
  std::string value;
  BS_FIELDS(PutRequest, key, value)
};

struct GetRequest {
  std::string key;
  BS_FIELDS(GetRequest, key)
};

struct GetResponse {
  std::string value;
  BS_FIELDS(GetResponse, value)
};

struct DeleteRequest {
  std::string key;
  BS_FIELDS(DeleteRequest, key)
};

/// Single-key compare-and-swap: installs `value` iff the stored value
/// equals `expected` (or iff the key is absent, with `expect_absent`). A
/// mismatch is a *successful* RPC (applied = false, current bytes
/// returned), so callers can re-learn and retry without conflating
/// conflicts with transport failures. The location index (src/locator)
/// serializes replica-set reconfigurations through this.
struct CasRequest {
  std::string key;
  std::string expected;  // ignored when expect_absent
  std::string value;
  bool expect_absent = false;
  BS_FIELDS(CasRequest, key, expected, value, expect_absent)
};

struct CasResponse {
  bool applied = false;
  /// Whether the key exists after the call; `current` holds its bytes then
  /// (the new value on success, the conflicting one on mismatch).
  bool present = false;
  std::string current;
  BS_FIELDS(CasResponse, applied, present, current)
};

struct MultiGetRequest {
  std::vector<std::string> keys;
  BS_FIELDS(MultiGetRequest, keys)
};

/// Many puts to one node in one round trip: an update ships its tree nodes
/// and location entries as one batch per DHT node. Each entry is applied
/// like a single put (last writer wins per key); the batch is not atomic.
struct MultiPutRequest {
  std::vector<PutRequest> entries;
  BS_FIELDS(MultiPutRequest, entries)
};

struct MultiGetResponse {
  /// found[i] says whether keys[i] existed; values carries entries only for
  /// found keys, in order.
  std::vector<uint8_t> found;
  std::vector<std::string> values;
  BS_FIELDS(MultiGetResponse, found, values)
};

}  // namespace blobseer::dht

#endif  // BLOBSEER_DHT_MESSAGES_H_
