// Content-hash page dedup (docs/lifecycle.md). Pages are addressed on
// write by a 128-bit content hash in the DHT's 'H' namespace: the first
// writer of a given page body claims the hash with a create-if-absent CAS
// mapping it to the PageId it just stored; later writers of identical
// bytes adopt that PageId (bumping the location entry's refcount) instead
// of storing a duplicate copy.
//
// The hash is NOT cryptographic — it is a fast 128-bit mix (FNV-1a + CRC32C
// folded through a finalizer), so adversarial collisions are constructible.
// Dedup is therefore opt-in per client (ClientOptions::dedup, default off)
// and meant for trusted workloads where space matters more than collision
// paranoia.
#ifndef BLOBSEER_LIFECYCLE_DEDUP_H_
#define BLOBSEER_LIFECYCLE_DEDUP_H_

#include <cstdint>
#include <string>

#include "common/hash.h"
#include "common/result.h"
#include "common/serde.h"
#include "common/types.h"

namespace blobseer::lifecycle {

struct ContentHash {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend bool operator==(const ContentHash&, const ContentHash&) = default;

  /// 0/0 is reserved as "no hash" in LocationEntry; HashPage never emits it.
  bool valid() const { return hi != 0 || lo != 0; }
};

/// Hashes one page body. Two independent passes (FNV-1a and CRC32C) are
/// mixed so a single weak function's collisions do not collapse the
/// 128-bit space to 64 bits.
inline ContentHash HashPage(Slice data) {
  ContentHash h;
  h.hi = Fnv1a64(data);
  h.lo = Mix64(h.hi ^ ((uint64_t{Crc32c(data)} << 32) | data.size()));
  if (!h.valid()) h.lo = 1;  // keep 0/0 reserved
  return h;
}

/// DHT key for a content hash ('H' namespace, alongside 'N' nodes and
/// 'L' location entries).
inline std::string HashKey(uint64_t hi, uint64_t lo) {
  BinaryWriter w;
  w.PutU8('H');
  w.PutU64(hi);
  w.PutU64(lo);
  return std::move(w).TakeBuffer();
}

inline std::string HashKey(const ContentHash& h) { return HashKey(h.hi, h.lo); }

/// Value stored under an 'H' key: the PageId holding the bytes.
inline std::string EncodeHashTarget(const PageId& pid) {
  return EncodePayload(pid);
}

inline Result<PageId> DecodeHashTarget(const std::string& bytes) {
  PageId pid;
  BS_RETURN_NOT_OK(DecodePayload(Slice(bytes), &pid));
  if (!pid.valid()) return Status::Corruption("hash target pid invalid");
  return pid;
}

}  // namespace blobseer::lifecycle

#endif  // BLOBSEER_LIFECYCLE_DEDUP_H_
