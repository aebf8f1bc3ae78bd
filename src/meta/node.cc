#include "meta/node.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace blobseer::meta {

std::string NodeKey::ToDhtKey() const {
  BinaryWriter w;
  w.PutU8('N');  // namespace tag: metadata node
  w.PutU64(origin);
  w.PutU64(version);
  w.PutU64(block.offset);
  w.PutU64(block.size);
  return std::move(w).TakeBuffer();
}

std::string NodeKey::ToString() const {
  return StrFormat("node{blob=%llu v=%llu %s}",
                   static_cast<unsigned long long>(origin),
                   static_cast<unsigned long long>(version),
                   block.ToString().c_str());
}

void MetaNode::EncodeTo(BinaryWriter* w) const {
  w->PutU8(kNodeFormatV3);
  w->PutU8(static_cast<uint8_t>(type));
  if (type == Type::kInner) {
    w->PutU64(left_version);
    w->PutU64(right_version);
  } else {
    w->PutU64(prev_version);
    w->PutU32(chain_len);
    serde::Encode(w, fragments);
  }
}

Status MetaNode::DecodeFrom(BinaryReader* r) {
  uint8_t format;
  BS_RETURN_NOT_OK(r->GetU8(&format));
  if (format != kNodeFormatV3) return Status::Corruption("bad node format");
  uint8_t t;
  BS_RETURN_NOT_OK(r->GetU8(&t));
  if (t > 1) return Status::Corruption("bad node type");
  type = static_cast<Type>(t);
  if (type == Type::kInner) {
    BS_RETURN_NOT_OK(r->GetU64(&left_version));
    return r->GetU64(&right_version);
  }
  BS_RETURN_NOT_OK(r->GetU64(&prev_version));
  BS_RETURN_NOT_OK(r->GetU32(&chain_len));
  return serde::Decode(r, &fragments);
}

std::string MetaNode::ToString() const {
  if (type == Type::kInner) {
    return StrFormat("inner{vl=%lld vr=%lld}",
                     static_cast<long long>(left_version),
                     static_cast<long long>(right_version));
  }
  return StrFormat("leaf{frags=%zu prev=%lld chain=%u}", fragments.size(),
                   static_cast<long long>(prev_version), chain_len);
}

}  // namespace blobseer::meta
