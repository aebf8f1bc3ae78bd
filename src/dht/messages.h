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
  void EncodeTo(BinaryWriter* w) const {
    w->PutString(key);
    w->PutString(value);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetString(&key));
    return r->GetString(&value);
  }
};

struct GetRequest {
  std::string key;
  void EncodeTo(BinaryWriter* w) const { w->PutString(key); }
  Status DecodeFrom(BinaryReader* r) { return r->GetString(&key); }
};

struct GetResponse {
  std::string value;
  void EncodeTo(BinaryWriter* w) const { w->PutString(value); }
  Status DecodeFrom(BinaryReader* r) { return r->GetString(&value); }
};

struct DeleteRequest {
  std::string key;
  void EncodeTo(BinaryWriter* w) const { w->PutString(key); }
  Status DecodeFrom(BinaryReader* r) { return r->GetString(&key); }
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
  void EncodeTo(BinaryWriter* w) const {
    w->PutString(key);
    w->PutString(expected);
    w->PutString(value);
    w->PutBool(expect_absent);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetString(&key));
    BS_RETURN_NOT_OK(r->GetString(&expected));
    BS_RETURN_NOT_OK(r->GetString(&value));
    return r->GetBool(&expect_absent);
  }
};

struct CasResponse {
  bool applied = false;
  /// Whether the key exists after the call; `current` holds its bytes then
  /// (the new value on success, the conflicting one on mismatch).
  bool present = false;
  std::string current;
  void EncodeTo(BinaryWriter* w) const {
    w->PutBool(applied);
    w->PutBool(present);
    w->PutString(current);
  }
  Status DecodeFrom(BinaryReader* r) {
    BS_RETURN_NOT_OK(r->GetBool(&applied));
    BS_RETURN_NOT_OK(r->GetBool(&present));
    return r->GetString(&current);
  }
};

struct MultiGetRequest {
  std::vector<std::string> keys;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU32(static_cast<uint32_t>(keys.size()));
    for (const auto& k : keys) w->PutString(k);
  }
  Status DecodeFrom(BinaryReader* r) {
    uint32_t n;
    BS_RETURN_NOT_OK(r->GetU32(&n));
    // Each key costs at least its 4-byte length prefix.
    if (static_cast<uint64_t>(n) * 4 > r->remaining())
      return Status::Corruption("multiget count exceeds payload");
    keys.resize(n);
    for (auto& k : keys) BS_RETURN_NOT_OK(r->GetString(&k));
    return Status::OK();
  }
};

struct MultiGetResponse {
  /// found[i] says whether keys[i] existed; values carries entries only for
  /// found keys, in order.
  std::vector<uint8_t> found;
  std::vector<std::string> values;
  void EncodeTo(BinaryWriter* w) const {
    w->PutU32(static_cast<uint32_t>(found.size()));
    for (uint8_t f : found) w->PutU8(f);
    w->PutU32(static_cast<uint32_t>(values.size()));
    for (const auto& v : values) w->PutString(v);
  }
  Status DecodeFrom(BinaryReader* r) {
    uint32_t n;
    BS_RETURN_NOT_OK(r->GetU32(&n));
    if (n > r->remaining())
      return Status::Corruption("multiget found-count exceeds payload");
    found.resize(n);
    for (auto& f : found) BS_RETURN_NOT_OK(r->GetU8(&f));
    BS_RETURN_NOT_OK(r->GetU32(&n));
    if (static_cast<uint64_t>(n) * 4 > r->remaining())
      return Status::Corruption("multiget value-count exceeds payload");
    values.resize(n);
    for (auto& v : values) BS_RETURN_NOT_OK(r->GetString(&v));
    return Status::OK();
  }
};

}  // namespace blobseer::dht

#endif  // BLOBSEER_DHT_MESSAGES_H_
