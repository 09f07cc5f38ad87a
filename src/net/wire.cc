#include "src/net/wire.h"

#include <cstring>

namespace vlora {
namespace net {

void WireWriter::Fixed(const void* v, size_t size) {
  const size_t old = buffer_.size();
  buffer_.resize(old + size);
  std::memcpy(buffer_.data() + old, v, size);
}

void WireWriter::Varint(uint64_t v) {
  while (v >= 0x80) {
    buffer_.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  buffer_.push_back(static_cast<char>(v));
}

void WireWriter::SignedVarint(int64_t v) {
  // Zigzag: small negatives stay small on the wire (-1 -> 1).
  Varint((static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63));
}

void WireWriter::Str(const std::string& s) {
  Varint(s.size());
  buffer_.append(s);
}

void WireWriter::I32Array(const int32_t* data, size_t count) {
  Varint(count);
  const size_t old = buffer_.size();
  buffer_.resize(old + count * sizeof(int32_t));
  std::memcpy(buffer_.data() + old, data, count * sizeof(int32_t));
}

void WireWriter::F32Array(const float* data, size_t count) {
  Varint(count);
  const size_t old = buffer_.size();
  buffer_.resize(old + count * sizeof(float));
  std::memcpy(buffer_.data() + old, data, count * sizeof(float));
}

bool WireReader::Fixed(void* v, size_t size) {
  if (!ok_ || size_ - pos_ < size) {
    return Fail();
  }
  std::memcpy(v, data_ + pos_, size);
  pos_ += size;
  return true;
}

bool WireReader::U8(uint8_t* v) { return Fixed(v, sizeof(*v)); }
bool WireReader::U16(uint16_t* v) { return Fixed(v, sizeof(*v)); }
bool WireReader::U32(uint32_t* v) { return Fixed(v, sizeof(*v)); }
bool WireReader::U64(uint64_t* v) { return Fixed(v, sizeof(*v)); }
bool WireReader::F32(float* v) { return Fixed(v, sizeof(*v)); }
bool WireReader::F64(double* v) { return Fixed(v, sizeof(*v)); }

bool WireReader::Varint(uint64_t* v) {
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (!ok_ || pos_ >= size_) {
      return Fail();
    }
    const uint8_t byte = data_[pos_++];
    // The 10th byte may only carry the final bit of a 64-bit value.
    if (shift == 63 && (byte & 0xFE) != 0) {
      return Fail();
    }
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = value;
      return true;
    }
  }
  return Fail();
}

bool WireReader::SignedVarint(int64_t* v) {
  uint64_t raw = 0;
  if (!Varint(&raw)) {
    return false;
  }
  *v = static_cast<int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
  return true;
}

bool WireReader::Str(std::string* s, uint64_t max_size) {
  uint64_t size = 0;
  if (!Varint(&size) || size > max_size || size_ - pos_ < size) {
    return Fail();
  }
  s->assign(reinterpret_cast<const char*>(data_ + pos_), size);
  pos_ += size;
  return true;
}

bool WireReader::I32Array(std::vector<int32_t>* out, uint64_t max_count) {
  uint64_t count = 0;
  if (!Varint(&count) || count > max_count || size_ - pos_ < count * sizeof(int32_t)) {
    return Fail();
  }
  out->resize(count);
  std::memcpy(out->data(), data_ + pos_, count * sizeof(int32_t));
  pos_ += count * sizeof(int32_t);
  return true;
}

bool WireReader::F32Array(std::vector<float>* out, uint64_t max_count) {
  uint64_t count = 0;
  if (!Varint(&count) || count > max_count || size_ - pos_ < count * sizeof(float)) {
    return Fail();
  }
  out->resize(count);
  std::memcpy(out->data(), data_ + pos_, count * sizeof(float));
  pos_ += count * sizeof(float);
  return true;
}

bool WireReader::Floats(float* data, size_t count) {
  uint64_t declared = 0;
  if (!Varint(&declared) || declared != count || (size_ - pos_) / sizeof(float) < count) {
    return Fail();
  }
  std::memcpy(data, data_ + pos_, count * sizeof(float));
  pos_ += count * sizeof(float);
  return true;
}

std::string FramePayload(const std::string& payload) {
  const uint32_t length = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(sizeof(length) + payload.size());
  frame.append(reinterpret_cast<const char*>(&length), sizeof(length));
  frame.append(payload);
  return frame;
}

Status FrameAssembler::Feed(const void* data, size_t size) {
  if (poisoned_) {
    return Status::FailedPrecondition("frame assembler poisoned by an earlier oversized frame");
  }
  buffer_.append(static_cast<const char*>(data), size);
  // Validate eagerly: an attacker-declared 4 GiB length must fail on arrival,
  // not after the master buffered it.
  if (buffer_.size() >= sizeof(uint32_t)) {
    uint32_t length = 0;
    std::memcpy(&length, buffer_.data(), sizeof(length));
    if (length > kMaxFrameBytes) {
      poisoned_ = true;
      return Status::OutOfRange("frame length " + std::to_string(length) +
                                " exceeds the frame bound");
    }
  }
  return Status::Ok();
}

bool FrameAssembler::Next(std::string* payload) {
  if (poisoned_ || buffer_.size() < sizeof(uint32_t)) {
    return false;
  }
  uint32_t length = 0;
  std::memcpy(&length, buffer_.data(), sizeof(length));
  if (buffer_.size() < sizeof(length) + length) {
    return false;
  }
  payload->assign(buffer_, sizeof(length), length);
  buffer_.erase(0, sizeof(length) + length);
  // The next queued frame's length must pass the same bound the Feed path
  // applies to the head of the buffer.
  if (buffer_.size() >= sizeof(uint32_t)) {
    uint32_t next_length = 0;
    std::memcpy(&next_length, buffer_.data(), sizeof(next_length));
    if (next_length > kMaxFrameBytes) {
      poisoned_ = true;
    }
  }
  return true;
}

}  // namespace net
}  // namespace vlora
