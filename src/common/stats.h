// Sums and printing for stats structs, from the same field list that
// gives them their wire codec.
//
// A stats struct that leaves its process (crosses an RPC, is summed across
// nodes or clients, or is printed) is a record of u64 counters:
//
//   struct VmStats {
//     uint64_t blobs = 0;
//     uint64_t published = 0;
//     BS_FIELDS(VmStats, blobs, published)
//   };
//
// Its payload is one u64 per field, in list order (common/serde.h).
#ifndef BLOBSEER_COMMON_STATS_H_
#define BLOBSEER_COMMON_STATS_H_

#include <cstdint>

#include "common/serde.h"

namespace blobseer::stats {

/// Calls `f(name, value)` for every field, in list order.
template <serde::Record S, typename F>
void ForEach(const S& s, F&& f) {
  serde::ForEachField<S>(
      [&](const auto& field) { f(field.name, s.*field.member); });
}

/// Fieldwise `*into += from`.
template <serde::Record S>
void Add(S* into, const S& from) {
  serde::ForEachField<S>(
      [&](const auto& field) { into->*field.member += from.*field.member; });
}

}  // namespace blobseer::stats

#endif  // BLOBSEER_COMMON_STATS_H_
