// Byte-level encoders for snapshot sections.
//
// Three encodings cover every column the snapshot store writes:
//   * fixed — little-endian fixed-width values, memcpy'd in bulk. Used for
//     double columns (IEEE bits round-trip exactly, which the bit-identity
//     guarantee depends on) and any column a reader copies out in bulk.
//   * varint — LEB128 unsigned varints; signed values go through zigzag
//     first so small negatives stay short.
//   * delta + zigzag varint — consecutive differences, zigzag'd. The hot
//     integer columns (stop_times, trip sequences, TODAM trips, CSR
//     offsets) are sorted or grouped, so deltas are tiny and the column
//     shrinks 3-6x without a general-purpose compressor.
//
// Every decoder is bounds-checked and returns false instead of reading
// past the end, so a corrupted or truncated section degrades into a clean
// kDataLoss status upstream — never UB. (Checksums catch corruption first
// on the normal path; the decoders stay safe even without them.)
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace staq::store {

// --- encoding --------------------------------------------------------------

inline void PutVarint64(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

inline void PutZigZag64(std::vector<uint8_t>* out, int64_t v) {
  PutVarint64(out, ZigZagEncode(v));
}

/// Appends `value`'s object representation (little-endian host assumed).
template <typename T>
inline void PutFixed(std::vector<uint8_t>* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t old = out->size();
  out->resize(old + sizeof(T));
  std::memcpy(out->data() + old, &value, sizeof(T));
}

/// Appends a length-prefixed string (varint length + bytes).
inline void PutLengthPrefixed(std::vector<uint8_t>* out,
                              const std::string& s) {
  PutVarint64(out, s.size());
  out->insert(out->end(), s.begin(), s.end());
}

// --- decoding --------------------------------------------------------------

/// A bounds-checked cursor over an immutable byte range (a section payload
/// inside the reader's file buffer — the cursor never copies).
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : cursor_(data), end_(data + size) {}

  size_t remaining() const { return static_cast<size_t>(end_ - cursor_); }
  bool exhausted() const { return cursor_ == end_; }
  const uint8_t* cursor() const { return cursor_; }

  bool ReadVarint64(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (cursor_ == end_) return false;
      uint8_t byte = *cursor_++;
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        *out = v;
        return true;
      }
    }
    return false;  // > 10 continuation bytes: not a valid varint
  }

  bool ReadZigZag64(int64_t* out) {
    uint64_t raw;
    if (!ReadVarint64(&raw)) return false;
    *out = ZigZagDecode(raw);
    return true;
  }

  template <typename T>
  bool ReadFixed(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) return false;
    std::memcpy(out, cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return true;
  }

  bool ReadLengthPrefixed(std::string* out) {
    uint64_t n;
    if (!ReadVarint64(&n) || n > remaining()) return false;
    out->assign(reinterpret_cast<const char*>(cursor_),
                static_cast<size_t>(n));
    cursor_ += n;
    return true;
  }

  /// Bulk-reads `count` fixed-width values straight out of the underlying
  /// bytes (single memcpy into the consumer's vector).
  template <typename T>
  bool ReadFixedColumn(size_t count, std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > remaining() / sizeof(T)) return false;
    out->resize(count);
    if (count > 0) std::memcpy(out->data(), cursor_, count * sizeof(T));
    cursor_ += count * sizeof(T);
    return true;
  }

 private:
  const uint8_t* cursor_;
  const uint8_t* end_;
};

// --- column helpers --------------------------------------------------------

/// Delta + zigzag varint encoding of an integer column. Works for any
/// (unsigned or signed) 32/64-bit element type; values are widened to
/// int64, so uint64 columns must stay below 2^63 (every staq id/count does).
template <typename T>
inline void PutDeltaColumn(std::vector<uint8_t>* out,
                           const std::vector<T>& column) {
  PutVarint64(out, column.size());
  int64_t prev = 0;
  for (const T& v : column) {
    int64_t x = static_cast<int64_t>(v);
    PutZigZag64(out, x - prev);
    prev = x;
  }
}

/// Decodes PutDeltaColumn. Returns false on truncation or on a value that
/// does not fit T (corruption must not wrap around into a "valid" id).
template <typename T>
inline bool ReadDeltaColumn(ByteReader* in, std::vector<T>* out) {
  uint64_t count;
  if (!in->ReadVarint64(&count)) return false;
  // A column cannot hold more elements than bytes remain (>= 1 byte per
  // varint), so this bound rejects absurd counts before the resize.
  if (count > in->remaining() + 1) return false;
  out->clear();
  out->reserve(static_cast<size_t>(count));
  int64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    int64_t delta;
    if (!in->ReadZigZag64(&delta)) return false;
    int64_t value = prev + delta;
    if constexpr (std::is_unsigned_v<T>) {
      if (value < 0 ||
          static_cast<uint64_t>(value) > std::numeric_limits<T>::max()) {
        return false;
      }
    } else {
      if (value < std::numeric_limits<T>::min() ||
          value > std::numeric_limits<T>::max()) {
        return false;
      }
    }
    out->push_back(static_cast<T>(value));
    prev = value;
  }
  return true;
}

/// Fixed-width column with a count prefix (doubles, Points, raw structs).
template <typename T>
inline void PutFixedColumn(std::vector<uint8_t>* out,
                           const std::vector<T>& column) {
  PutVarint64(out, column.size());
  const size_t old = out->size();
  out->resize(old + column.size() * sizeof(T));
  if (!column.empty()) {
    std::memcpy(out->data() + old, column.data(), column.size() * sizeof(T));
  }
}

template <typename T>
inline bool ReadFixedColumn(ByteReader* in, std::vector<T>* out) {
  uint64_t count;
  if (!in->ReadVarint64(&count)) return false;
  return in->ReadFixedColumn(static_cast<size_t>(count), out);
}

}  // namespace staq::store
