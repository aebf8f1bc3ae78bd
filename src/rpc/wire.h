// Wire-level constants shared by all transports: method identifiers and
// frame layouts.
//
// TCP frame format v2 (correlation ids; body_len counts everything after
// itself):
//   Request frame : [u32 body_len][u64 corr_id][u32 method][payload...]
//   Response frame: [u32 body_len][u64 corr_id][u8 status_code]
//                   [u32 msg_len][msg][payload...]
// The correlation id is chosen by the client and echoed back verbatim, so
// the server answers each request the moment its handler completes —
// responses travel in completion order, not request order, and a held call
// (e.g. a parked AwaitPublished subscription) no longer blocks the requests
// pipelined behind it. v2 is a hard format bump over the id-less v1 frames:
// client and server always ship from the same tree.
//
// The in-process and simulated transports skip framing and pass the payload
// and Status through directly.
//
// Payloads (and DHT values) are encoded by the one codec in common/serde.h,
// from each record's BS_FIELDS list:
//   - fields in list order, with no names, tags, padding or version;
//   - bool and u8 as one byte; u32 and u64 fixed-width little-endian
//     (ProviderId is a u32, BlobId and Version are u64s);
//   - strings as a u32 length and the bytes; vectors as a u32 count and the
//     elements; PageId as hi then lo, Extent as offset then size (u64s);
//   - nested records inline.
// A payload that runs short or leaves bytes over is Corruption, and so is a
// count the remaining bytes cannot hold. Only meta::MetaNode, a tagged union
// behind a format byte, is encoded by hand.
#ifndef BLOBSEER_RPC_WIRE_H_
#define BLOBSEER_RPC_WIRE_H_

#include <cstdint>

namespace blobseer::rpc {

/// Every RPC method in the system. Grouped by service in blocks of 100.
enum class Method : uint32_t {
  // DHT (metadata provider) service.
  kDhtPut = 100,
  kDhtGet = 101,
  kDhtDelete = 102,
  kDhtMultiGet = 103,
  kDhtStats = 104,
  kDhtCas = 105,
  kDhtMultiPut = 106,

  // Data provider service.
  kProviderWrite = 200,
  kProviderRead = 201,
  kProviderDelete = 202,
  kProviderStats = 203,

  // Provider manager service.
  kPmRegister = 300,
  kPmHeartbeat = 301,
  kPmAllocate = 302,
  kPmDirectory = 303,
  kPmStats = 304,
  kPmReportLocations = 305,
  kPmDecommission = 306,

  // Version manager service.
  kVmCreateBlob = 400,
  kVmOpenBlob = 401,
  kVmAssignVersion = 402,
  kVmNotifySuccess = 403,
  kVmAbortUpdate = 404,
  kVmGetRecent = 405,
  kVmGetSize = 406,
  kVmAwaitPublished = 407,
  kVmBranch = 408,
  kVmStats = 409,
  kVmSetRetention = 410,
  kVmGetRetention = 411,
  kVmListVersions = 412,
  kVmDiscardVersion = 413,
  kVmListBlobs = 414,

  // Centralized-metadata baseline service (ablation comparator).
  kCentralCreate = 500,
  kCentralUpdate = 501,
  kCentralGetLayout = 502,
  kCentralGetRecent = 503,
};

/// Largest TCP frame body either side accepts; callers that batch requests
/// keep each batch well below it.
inline constexpr uint32_t kMaxFrame = 256u * 1024 * 1024;

/// Per-message fixed wire overhead (framing + TCP/IP headers) charged by the
/// simulated transport so small metadata RPCs have realistic cost.
inline constexpr uint32_t kWireOverheadBytes = 96;

}  // namespace blobseer::rpc

#endif  // BLOBSEER_RPC_WIRE_H_
