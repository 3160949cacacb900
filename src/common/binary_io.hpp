// Little-endian binary serialization primitives for the cache snapshot
// format (src/cache/cache_io.hpp) and any future on-disk encoding.
//
// Two rules make the format safe to feed untrusted bytes:
//   1. every read is bounds-checked against the buffer and throws WireError
//      (never UB) on truncation, and
//   2. multi-byte values are assembled byte by byte, so the encoding is
//      little-endian regardless of host endianness and never does an
//      unaligned load.
// Doubles travel as IEEE-754 bit patterns (bit_cast via u64), so values
// round-trip bit for bit — the same discipline the JSONL reports follow
// with %.17g.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace essns {

/// Thrown on any malformed binary stream: truncation, a length prefix that
/// overruns the buffer, a CRC mismatch, an unknown enum value, a version the
/// decoder does not speak. Deliberately distinct from IoError (the transport
/// worked; the bytes are bad).
class WireError : public Error {
 public:
  explicit WireError(const std::string& what) : Error(what) {}
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum trailing every
/// cache snapshot frame. Table-driven; the table is built at compile time.
class Crc32 {
 public:
  static std::uint32_t of(const std::uint8_t* data, std::size_t size) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i)
      crc = (crc >> 8) ^ table()[(crc ^ data[i]) & 0xFFu];
    return crc ^ 0xFFFFFFFFu;
  }

  static std::uint32_t of(const std::vector<std::uint8_t>& data) {
    return of(data.data(), data.size());
  }

 private:
  static constexpr std::array<std::uint32_t, 256> make_table() {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      table[n] = c;
    }
    return table;
  }

  static const std::array<std::uint32_t, 256>& table() {
    static constexpr std::array<std::uint32_t, 256> kTable = make_table();
    return kTable;
  }
};

/// Append-only little-endian encoder over a byte vector.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }

  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) out_->push_back((v >> (8 * i)) & 0xFFu);
  }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_->push_back((v >> (8 * i)) & 0xFFu);
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_->push_back((v >> (8 * i)) & 0xFFu);
  }

  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void bytes(const std::uint8_t* data, std::size_t size) {
    out_->insert(out_->end(), data, data + size);
  }

  /// Length-prefixed (u64) string.
  void str(const std::string& s) {
    u64(s.size());
    bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

 private:
  std::vector<std::uint8_t>* out_;
};

/// Bounds-checked little-endian decoder over a byte span. Every accessor
/// throws WireError when the buffer runs out; length prefixes are validated
/// against the remaining bytes BEFORE any allocation, so a corrupted length
/// cannot make the decoder reserve gigabytes.
class BinaryReader {
 public:
  BinaryReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  explicit BinaryReader(const std::vector<std::uint8_t>& data)
      : BinaryReader(data.data(), data.size()) {}

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

  std::uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }

  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2, "u16")); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4, "u32")); }
  std::uint64_t u64() { return le(8, "u64"); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  /// Length-prefixed string; the prefix must fit in what is left.
  std::string str() {
    const std::uint64_t size = u64();
    need(size, "string body");
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(size));
    pos_ += static_cast<std::size_t>(size);
    return s;
  }

  /// Raw bytes into `out` (caller supplies the count, e.g. a grid payload).
  void bytes(std::uint8_t* out, std::size_t size) {
    need(size, "byte block");
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
  }

  /// Fails unless exactly `size` more bytes are available — use before bulk
  /// reads driven by decoded dimensions.
  void need(std::uint64_t size, const char* what) const {
    if (size > size_ - pos_)
      throw WireError(std::string("binary stream truncated reading ") + what);
  }

 private:
  std::uint64_t le(int count, const char* what) {
    need(static_cast<std::uint64_t>(count), what);
    std::uint64_t v = 0;
    for (int i = 0; i < count; ++i)
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += static_cast<std::size_t>(count);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace essns
