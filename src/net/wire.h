// Length-prefixed binary wire format shared by the master and the executor.
//
// Frame layout (see DESIGN.md §11 for the full diagram):
//
//   [u32 length]                      -- payload bytes that follow, LE
//   payload:
//     [u16 magic 0x564C "VL"]         -- cheap desync detector
//     [u8  protocol version]
//     [u8  message type]              -- net::MessageType
//     [body ...]                      -- per-type fields (messages.h)
//
// Field codec inside bodies: fixed-width little-endian scalars for floats
// and hash-like values, LEB128 varints for counts/lengths (zigzag for signed
// ints that can be negative, e.g. adapter_id = -1), and length-prefixed byte
// runs for strings and numeric arrays.
//
// Decoding never trusts the peer: every count/length is bounded before
// allocation, a frame longer than kMaxFrameBytes poisons the assembler with
// a clean Status (no crash, no unbounded buffering), and WireReader turns
// any truncated or malformed read into `ok() == false` rather than UB.
//
// Field lists. WireWriter and WireReader share a set of field ops with the
// same names, each taking the field by reference, so a message lists its
// fields once, as a function template over the direction:
//
//   template <typename Io, typename M>
//   static bool Fields(Io& io, M& m) {
//     return io.Int(m.id) && io.Text(m.name) && io.Floats(m.data, kMaxFloats);
//   }
//
// WireWriter runs the list to encode (M is const and every op returns true);
// WireReader runs it to decode, and any op can fail. The order, count and
// encoding of every field therefore exist in one place. Bounds an op
// carries are the reader's; the writer ignores them. Each op is one
// primitive in both classes, and the two definitions sit side by side below
// the classes:
//
//   Int(v[, min, max])   zigzag varint; decoding rejects a value outside
//                        [min, max] or outside v's type
//   Size(v, max)         unsigned varint (a dimension)
//   Bool(v)              u8 0 or 1
//   Enum(v, max)         u8; decoding rejects a value above max
//   Fixed(v)             fixed-width scalar: f32, f64, a u64 seed, the
//                        header's u16 and u8
//   Text(s)              length-prefixed bytes
//   Ints(v, max)         length-prefixed i32 array of at most max entries
//   Floats(v, max)       length-prefixed f32 array of at most max entries
//   Floats(data, count)  an f32 run whose length prefix must equal count
//   Repeated(items, max, item_fields)
//                        a group's length prefix, then item_fields(item)
//                        for every item; decoding resizes items first
//   Require(condition)   a decode-side check; the writer ignores it
//
// `Io::kDecoding` lets a list do decode-only work that is not an encoding,
// such as shaping a tensor before its floats are read into it.

#ifndef VLORA_SRC_NET_WIRE_H_
#define VLORA_SRC_NET_WIRE_H_

#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/status.h"

namespace vlora {
namespace net {

inline constexpr uint16_t kWireMagic = 0x564C;  // "VL"
inline constexpr uint8_t kProtocolVersion = 1;
// Bounds one frame; large enough for a serialized adapter of the biggest
// test model, small enough that a corrupt length cannot OOM the master.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

// Appends fields to a growing byte buffer. All writes succeed; the caller
// frames the result with EncodeFrame / Channel::Send.
class WireWriter {
 public:
  static constexpr bool kDecoding = false;

  // Field ops (see the header comment).
  template <typename T>
  bool Int(const T& v, int64_t min = std::numeric_limits<T>::min(),
           int64_t max = std::numeric_limits<T>::max());
  template <typename T>
  bool Size(const T& v, uint64_t max);
  bool Bool(const bool& v);
  template <typename E>
  bool Enum(const E& v, E max);
  template <typename T>
  bool Fixed(const T& v);
  bool Text(const std::string& s);
  bool Ints(const std::vector<int32_t>& v, uint64_t max_count);
  bool Floats(const std::vector<float>& v, uint64_t max_count);
  bool Floats(const float* data, size_t count);
  template <typename C, typename F>
  bool Repeated(const C& items, uint64_t max_count, F item_fields);
  bool Require(bool condition);

  // Primitives.
  void U8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Fixed(&v, sizeof(v)); }
  void U32(uint32_t v) { Fixed(&v, sizeof(v)); }
  void U64(uint64_t v) { Fixed(&v, sizeof(v)); }
  void F32(float v) { Fixed(&v, sizeof(v)); }
  void F64(double v) { Fixed(&v, sizeof(v)); }

  // LEB128: 7 bits per byte, high bit = continuation.
  void Varint(uint64_t v);
  // Zigzag-mapped varint for small-magnitude signed values.
  void SignedVarint(int64_t v);

  void Str(const std::string& s);
  void I32Array(const int32_t* data, size_t count);
  void F32Array(const float* data, size_t count);

  const std::string& data() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }

 private:
  void Fixed(const void* v, size_t size);

  std::string buffer_;
};

// Consumes fields from a byte span. Every accessor returns false (and
// latches ok() == false) on truncation, overflow or a bound violation; a
// failed reader never reads past the span.
class WireReader {
 public:
  WireReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit WireReader(const std::string& bytes) : WireReader(bytes.data(), bytes.size()) {}

  static constexpr bool kDecoding = true;

  // Field ops (see the header comment).
  template <typename T>
  bool Int(T& v, int64_t min = std::numeric_limits<T>::min(),
           int64_t max = std::numeric_limits<T>::max());
  template <typename T>
  bool Size(T& v, uint64_t max);
  bool Bool(bool& v);
  template <typename E>
  bool Enum(E& v, E max);
  template <typename T>
  bool Fixed(T& v);
  bool Text(std::string& s);
  bool Ints(std::vector<int32_t>& v, uint64_t max_count);
  bool Floats(std::vector<float>& v, uint64_t max_count);
  bool Floats(float* data, size_t count);
  template <typename C, typename F>
  bool Repeated(C& items, uint64_t max_count, F item_fields);
  bool Require(bool condition);

  // Primitives.
  bool U8(uint8_t* v);
  bool U16(uint16_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool F32(float* v);
  bool F64(double* v);
  bool Varint(uint64_t* v);
  bool SignedVarint(int64_t* v);
  bool Str(std::string* s, uint64_t max_size = 1u << 16);
  bool I32Array(std::vector<int32_t>* out, uint64_t max_count);
  bool F32Array(std::vector<float>* out, uint64_t max_count);

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }
  // True when every byte was consumed cleanly — trailing garbage in a frame
  // is a protocol error, not padding.
  bool Done() const { return ok_ && pos_ == size_; }

 private:
  bool Fixed(void* v, size_t size);
  bool Fail() {
    ok_ = false;
    return false;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Field ops, each writer definition next to its reader.
// ---------------------------------------------------------------------------

template <typename T>
bool WireWriter::Int(const T& v, int64_t, int64_t) {
  static_assert(std::is_integral_v<T> && std::is_signed_v<T>);
  SignedVarint(v);
  return true;
}
template <typename T>
bool WireReader::Int(T& v, int64_t min, int64_t max) {
  static_assert(std::is_integral_v<T> && std::is_signed_v<T>);
  int64_t raw = 0;
  if (!SignedVarint(&raw)) {
    return false;
  }
  if (raw < min || raw > max || raw < std::numeric_limits<T>::min() ||
      raw > std::numeric_limits<T>::max()) {
    return Fail();
  }
  v = static_cast<T>(raw);
  return true;
}

template <typename T>
bool WireWriter::Size(const T& v, uint64_t) {
  static_assert(std::is_integral_v<T>);
  Varint(static_cast<uint64_t>(v));
  return true;
}
template <typename T>
bool WireReader::Size(T& v, uint64_t max) {
  static_assert(std::is_integral_v<T>);
  uint64_t raw = 0;
  if (!Varint(&raw)) {
    return false;
  }
  if (raw > max || raw > static_cast<uint64_t>(std::numeric_limits<T>::max())) {
    return Fail();
  }
  v = static_cast<T>(raw);
  return true;
}

inline bool WireWriter::Bool(const bool& v) {
  U8(v ? 1 : 0);
  return true;
}
inline bool WireReader::Bool(bool& v) {
  uint8_t raw = 0;
  if (!U8(&raw) || raw > 1) {
    return Fail();
  }
  v = raw != 0;
  return true;
}

template <typename E>
bool WireWriter::Enum(const E& v, E) {
  U8(static_cast<uint8_t>(v));
  return true;
}
template <typename E>
bool WireReader::Enum(E& v, E max) {
  uint8_t raw = 0;
  if (!U8(&raw) || raw > static_cast<uint8_t>(max)) {
    return Fail();
  }
  v = static_cast<E>(raw);
  return true;
}

template <typename T>
bool WireWriter::Fixed(const T& v) {
  static_assert(std::is_arithmetic_v<T>);
  Fixed(&v, sizeof(v));
  return true;
}
template <typename T>
bool WireReader::Fixed(T& v) {
  static_assert(std::is_arithmetic_v<T>);
  return Fixed(&v, sizeof(v));
}

inline bool WireWriter::Text(const std::string& s) {
  Str(s);
  return true;
}
inline bool WireReader::Text(std::string& s) { return Str(&s); }

inline bool WireWriter::Ints(const std::vector<int32_t>& v, uint64_t) {
  I32Array(v.data(), v.size());
  return true;
}
inline bool WireReader::Ints(std::vector<int32_t>& v, uint64_t max_count) {
  return I32Array(&v, max_count);
}

inline bool WireWriter::Floats(const std::vector<float>& v, uint64_t) {
  F32Array(v.data(), v.size());
  return true;
}
inline bool WireReader::Floats(std::vector<float>& v, uint64_t max_count) {
  return F32Array(&v, max_count);
}

inline bool WireWriter::Floats(const float* data, size_t count) {
  F32Array(data, count);
  return true;
}
// WireReader::Floats(float*, size_t) is in wire.cc: F32Array's layout into
// caller-shaped storage.

template <typename C, typename F>
bool WireWriter::Repeated(const C& items, uint64_t, F item_fields) {
  Varint(items.size());
  for (const auto& item : items) {
    item_fields(item);
  }
  return true;
}
template <typename C, typename F>
bool WireReader::Repeated(C& items, uint64_t max_count, F item_fields) {
  uint64_t count = 0;
  if (!Varint(&count) || count > max_count) {
    return Fail();
  }
  items.resize(count);
  for (auto& item : items) {
    if (!item_fields(item)) {
      return false;
    }
  }
  return true;
}

inline bool WireWriter::Require(bool) { return true; }
inline bool WireReader::Require(bool condition) { return condition || Fail(); }

// Prepends the u32 length prefix to an already-built payload.
std::string FramePayload(const std::string& payload);

// Incremental frame reassembly over arbitrary read chunk boundaries (a
// single Recv may deliver half a frame or three). Feed bytes as they arrive;
// Next pops complete payloads in order. A declared length above
// kMaxFrameBytes fails the Feed and poisons the assembler — the connection
// must be dropped, there is no way to resynchronise a corrupt stream.
class FrameAssembler {
 public:
  [[nodiscard]] Status Feed(const void* data, size_t size);
  // Moves the next complete payload into *payload; false when none is
  // buffered yet (or the assembler is poisoned).
  bool Next(std::string* payload);

  bool poisoned() const { return poisoned_; }
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
  bool poisoned_ = false;
};

}  // namespace net
}  // namespace vlora

#endif  // VLORA_SRC_NET_WIRE_H_
