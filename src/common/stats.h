// One field list per exported stats struct, and everything derived from it.
//
// A stats struct that leaves its process (crosses an RPC, is summed across
// nodes or clients, or is printed) names each u64 counter once, in a static
// field list:
//
//   struct VmStats {
//     uint64_t blobs = 0;
//     uint64_t published = 0;
//     static constexpr auto Fields() {
//       using S = VmStats;
//       return std::to_array<stats::Field<S>>(
//           {{"blobs", &S::blobs}, {"published", &S::published}});
//     }
//   };
//
// From that list alone this header derives the wire codec (one u64 per
// field, in list order; no names go on the wire), Add (fieldwise sum) and
// ForEach (name/value pairs for printing and JSON). Client and server ship
// from the same tree (rpc/wire.h), so the positional codec needs no
// versioning: a payload shorter or longer than the list is Corruption.
#ifndef BLOBSEER_COMMON_STATS_H_
#define BLOBSEER_COMMON_STATS_H_

#include <array>
#include <cstdint>

#include "common/serde.h"

namespace blobseer::stats {

template <typename S>
struct Field {
  const char* name;
  uint64_t S::*member;
};

/// A struct with a static `Fields()` list.
template <typename S>
concept Struct = requires { S::Fields(); };

/// Calls `f(name, value)` for every field, in list order.
template <Struct S, typename F>
void ForEach(const S& s, F&& f) {
  for (const auto& field : S::Fields()) f(field.name, s.*field.member);
}

/// Fieldwise `*into += from`.
template <Struct S>
void Add(S* into, const S& from) {
  for (const auto& field : S::Fields())
    into->*field.member += from.*field.member;
}

template <Struct S>
void EncodeTo(const S& s, BinaryWriter* w) {
  for (const auto& field : S::Fields()) w->PutU64(s.*field.member);
}

template <Struct S>
Status DecodeFrom(BinaryReader* r, S* s) {
  for (const auto& field : S::Fields())
    BS_RETURN_NOT_OK(r->GetU64(&(s->*field.member)));
  return Status::OK();
}

}  // namespace blobseer::stats

#endif  // BLOBSEER_COMMON_STATS_H_
