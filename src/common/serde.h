// Bounds-checked little-endian binary serialization, and the one codec
// every wire record derives from its field list.
//
// A record that crosses a process or lands in the DHT names its members
// once:
//
//   struct PutRequest {
//     std::string key;
//     std::string value;
//     BS_FIELDS(PutRequest, key, value)
//   };
//
// BS_FIELDS expands to a static Fields() tuple of {name, pointer-to-member}
// and to member EncodeTo/DecodeFrom that run the generic codec below over
// that list.
// The same list drives stats::Add and stats::ForEach (common/stats.h).
// rpc/wire.h states the encoding rules, which are the wire format.
#ifndef BLOBSEER_COMMON_SERDE_H_
#define BLOBSEER_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace blobseer {

/// Append-only encoder. All integers are fixed-width little-endian; byte
/// strings are length-prefixed with a u32.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutRaw(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  void PutBytes(Slice s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  void PutString(const std::string& s) { PutBytes(Slice(s)); }

  void PutPageId(const PageId& p) {
    PutU64(p.hi);
    PutU64(p.lo);
  }
  void PutExtent(const Extent& e) {
    PutU64(e.offset);
    PutU64(e.size);
  }

  /// Appends raw bytes with no length prefix (caller manages framing).
  void PutRawBytes(Slice s) { buf_.append(s.data(), s.size()); }

  size_t size() const { return buf_.size(); }
  const std::string& buffer() const { return buf_; }
  std::string TakeBuffer() && { return std::move(buf_); }

 private:
  void PutRaw(const void* p, size_t n) {
    buf_.append(reinterpret_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Bounds-checked decoder over a borrowed byte range.
class BinaryReader {
 public:
  explicit BinaryReader(Slice s) : data_(s) {}

  Status GetU8(uint8_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU16(uint16_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU32(uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetU64(uint64_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetI64(int64_t* v) { return GetRaw(v, sizeof(*v)); }
  Status GetDouble(double* v) { return GetRaw(v, sizeof(*v)); }
  Status GetBool(bool* v) {
    uint8_t b;
    BS_RETURN_NOT_OK(GetU8(&b));
    *v = b != 0;
    return Status::OK();
  }

  Status GetBytes(std::string* out) {
    uint32_t n = 0;  // initialized: GCC 12 -Wmaybe-uninitialized inlining FP
    BS_RETURN_NOT_OK(GetU32(&n));
    if (n > data_.size()) return Truncated();
    out->assign(data_.data(), n);
    data_.RemovePrefix(n);
    return Status::OK();
  }
  /// Zero-copy variant: the returned slice borrows the reader's input.
  Status GetBytesView(Slice* out) {
    uint32_t n = 0;
    BS_RETURN_NOT_OK(GetU32(&n));
    if (n > data_.size()) return Truncated();
    *out = data_.SubSlice(0, n);
    data_.RemovePrefix(n);
    return Status::OK();
  }
  Status GetString(std::string* out) { return GetBytes(out); }

  Status GetPageId(PageId* p) {
    BS_RETURN_NOT_OK(GetU64(&p->hi));
    return GetU64(&p->lo);
  }
  Status GetExtent(Extent* e) {
    BS_RETURN_NOT_OK(GetU64(&e->offset));
    return GetU64(&e->size);
  }

  size_t remaining() const { return data_.size(); }

  /// Fails unless the whole input has been consumed: catches trailing
  /// garbage from mismatched message definitions.
  Status ExpectEnd() const {
    if (!data_.empty())
      return Status::Corruption("trailing bytes in message: " +
                                std::to_string(data_.size()));
    return Status::OK();
  }

 private:
  Status GetRaw(void* p, size_t n) {
    if (data_.size() < n) return Truncated();
    std::memcpy(p, data_.data(), n);
    data_.RemovePrefix(n);
    return Status::OK();
  }
  static Status Truncated() {
    return Status::Corruption("truncated message");
  }
  Slice data_;
};

namespace serde {

/// One entry of a record's field list.
template <typename S, typename T>
struct Field {
  using Type = T;
  const char* name;
  T S::*member;
};

/// A struct with a BS_FIELDS list.
template <typename S>
concept Record = requires { S::Fields(); };

/// Calls `f(field)` for every entry of S's field list, in list order.
template <Record S, typename F>
void ForEachField(F&& f) {
  std::apply([&f](const auto&... field) { (f(field), ...); }, S::Fields());
}

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/// Cap on any decoded element count, whatever the payload size.
inline constexpr uint32_t kMaxElements = 64u * 1024 * 1024;

/// The fewest bytes a T encodes to.
template <typename T>
constexpr uint64_t MinSize() {
  if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else if constexpr (std::is_same_v<T, std::string> || kIsVector<T>) {
    return 4;  // the u32 length or count
  } else if constexpr (std::is_same_v<T, PageId> ||
                       std::is_same_v<T, Extent>) {
    return 16;
  } else {
    return std::apply(
        [](const auto&... field) {
          return (uint64_t{0} + ... +
                  MinSize<typename std::decay_t<decltype(field)>::Type>());
        },
        T::Fields());
  }
}

template <typename T>
void Encode(BinaryWriter* w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w->PutBool(v);
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    w->PutU8(v);
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    w->PutU32(v);
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    w->PutU64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w->PutString(v);
  } else if constexpr (std::is_same_v<T, PageId>) {
    w->PutPageId(v);
  } else if constexpr (std::is_same_v<T, Extent>) {
    w->PutExtent(v);
  } else if constexpr (kIsVector<T>) {
    w->PutU32(static_cast<uint32_t>(v.size()));
    for (const auto& e : v) Encode(w, e);
  } else {
    v.EncodeTo(w);
  }
}

template <typename T>
Status Decode(BinaryReader* r, T* v) {
  if constexpr (std::is_same_v<T, bool>) {
    return r->GetBool(v);
  } else if constexpr (std::is_same_v<T, uint8_t>) {
    return r->GetU8(v);
  } else if constexpr (std::is_same_v<T, uint32_t>) {
    return r->GetU32(v);
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    return r->GetU64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return r->GetString(v);
  } else if constexpr (std::is_same_v<T, PageId>) {
    return r->GetPageId(v);
  } else if constexpr (std::is_same_v<T, Extent>) {
    return r->GetExtent(v);
  } else if constexpr (kIsVector<T>) {
    using E = typename T::value_type;
    static_assert(MinSize<E>() > 0, "vector elements must encode to bytes");
    uint32_t n = 0;  // initialized: GCC 12 -Wmaybe-uninitialized inlining FP
    BS_RETURN_NOT_OK(r->GetU32(&n));
    // A count the remaining bytes cannot hold is corrupt; checking it first
    // also stops adversarial counts from forcing gigantic allocations.
    if (n > kMaxElements || n * MinSize<E>() > r->remaining())
      return Status::Corruption("vector count exceeds payload");
    v->resize(n);
    for (E& e : *v) BS_RETURN_NOT_OK(Decode(r, &e));
    return Status::OK();
  } else {
    return v->DecodeFrom(r);
  }
}

/// The BS_FIELDS codec: every listed field, in list order.
template <Record S>
void EncodeFields(const S& s, BinaryWriter* w) {
  ForEachField<S>([&](const auto& field) { Encode(w, s.*field.member); });
}

template <Record S>
Status DecodeFields(BinaryReader* r, S* s) {
  Status st;
  std::apply(
      [&](const auto&... field) {  // stops at the first failing field
        (void)(... && (st = Decode(r, &(s->*field.member))).ok());
      },
      S::Fields());
  return st;
}

}  // namespace serde

/// Serializes one message (a record, or any type serde::Encode takes).
template <typename M>
std::string EncodePayload(const M& msg) {
  BinaryWriter w;
  serde::Encode(&w, msg);
  return std::move(w).TakeBuffer();
}

/// Decodes a whole buffer into `*msg`: the one decode path of every call,
/// handler and DHT value. Fails with Corruption on short or trailing bytes.
template <typename M>
Status DecodePayload(Slice payload, M* msg) {
  BinaryReader r(payload);
  BS_RETURN_NOT_OK(serde::Decode(&r, msg));
  return r.ExpectEnd();
}

}  // namespace blobseer

// Declares a record's fields, once, in wire order. See the top of this file.
#define BS_FIELDS(Type, ...)                                                \
  static constexpr auto Fields() {                                          \
    return std::make_tuple(BS_FIELDS_EACH_(Type, __VA_ARGS__));             \
  }                                                                         \
  void EncodeTo(::blobseer::BinaryWriter* w) const {                        \
    ::blobseer::serde::EncodeFields(*this, w);                              \
  }                                                                         \
  ::blobseer::Status DecodeFrom(::blobseer::BinaryReader* r) {              \
    return ::blobseer::serde::DecodeFields(r, this);                        \
  }

// BS_FIELDS_EACH_(T, a, b) -> Field{"a", &T::a}, Field{"b", &T::b}. The
// recursion rescans through BS_FIELDS_EXPAND_: up to 41 fields, and a
// longer list fails to compile.
#define BS_FIELDS_EACH_(Type, ...) \
  __VA_OPT__(BS_FIELDS_EXPAND_(BS_FIELDS_ONE_(Type, __VA_ARGS__)))
#define BS_FIELDS_ONE_(Type, name, ...)                                  \
  ::blobseer::serde::Field<Type, decltype(Type::name)>{#name, &Type::name} \
  __VA_OPT__(, BS_FIELDS_AGAIN_ BS_FIELDS_PARENS_(Type, __VA_ARGS__))
#define BS_FIELDS_AGAIN_() BS_FIELDS_ONE_
#define BS_FIELDS_PARENS_ ()
#define BS_FIELDS_EXPAND_(...) \
  BS_FIELDS_EXPAND3_(BS_FIELDS_EXPAND3_(BS_FIELDS_EXPAND3_(__VA_ARGS__)))
#define BS_FIELDS_EXPAND3_(...) \
  BS_FIELDS_EXPAND2_(BS_FIELDS_EXPAND2_(BS_FIELDS_EXPAND2_(__VA_ARGS__)))
#define BS_FIELDS_EXPAND2_(...) \
  BS_FIELDS_EXPAND1_(BS_FIELDS_EXPAND1_(BS_FIELDS_EXPAND1_(__VA_ARGS__)))
#define BS_FIELDS_EXPAND1_(...) __VA_ARGS__

#endif  // BLOBSEER_COMMON_SERDE_H_
