#ifndef MMDB_CATALOG_SCHEMA_H_
#define MMDB_CATALOG_SCHEMA_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "util/status.h"

namespace mmdb {

/// Column types supported by relations. Long fields (voice/image data)
/// are out of scope, exactly as in the paper ("managed by a separate
/// mechanism not described here").
enum class ColumnType : uint8_t {
  kInt64 = 0,
  kString = 1,
};

struct Column {
  std::string name;
  ColumnType type = ColumnType::kInt64;

  friend bool operator==(const Column&, const Column&) = default;
};

/// A single field value.
using Value = std::variant<int64_t, std::string>;

/// A materialized tuple (one Value per schema column).
using Tuple = std::vector<Value>;

/// Relation schema: an ordered list of typed, named columns, plus the
/// tuple wire format used inside partitions and log records.
///
/// Wire format: per column, int64 as 8 bytes little-endian; string as
/// u32 length + bytes. The format is self-delimiting given the schema.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  const std::vector<Column>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }

  /// Index of the column named `name`, or -1.
  int FindColumn(const std::string& name) const;

  /// Validates that `tuple` matches the schema's arity and types.
  Status Validate(const Tuple& tuple) const;

  /// Encodes a tuple into the wire format. Fails on schema mismatch.
  Result<std::vector<uint8_t>> Encode(const Tuple& tuple) const;

  /// Decodes wire-format bytes. Fails with Corruption on malformed input.
  Result<Tuple> Decode(std::span<const uint8_t> data) const;

  /// Serializes the schema itself (for catalog rows).
  std::vector<uint8_t> Serialize() const;
  static Result<Schema> Deserialize(std::span<const uint8_t> data,
                                    size_t* consumed);

  friend bool operator==(const Schema&, const Schema&) = default;

 private:
  std::vector<Column> columns_;
};

/// Append helpers shared by catalog/log serialization code. Integers are
/// little-endian; each is appended as one word, not byte by byte.
namespace wire {
/// Appends the low `N` bytes of `v`, little-endian.
template <size_t N>
inline void PutLE(std::vector<uint8_t>* out, uint64_t v) {
  size_t at = out->size();
  out->resize(at + N);
  uint8_t* p = out->data() + at;
  for (size_t i = 0; i < N; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
inline void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }
inline void PutU16(std::vector<uint8_t>* out, uint16_t v) { PutLE<2>(out, v); }
inline void PutU32(std::vector<uint8_t>* out, uint32_t v) { PutLE<4>(out, v); }
inline void PutU64(std::vector<uint8_t>* out, uint64_t v) { PutLE<8>(out, v); }
inline void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutLE<8>(out, static_cast<uint64_t>(v));
}
void PutBytes(std::vector<uint8_t>* out, std::span<const uint8_t> v);
void PutString(std::vector<uint8_t>* out, const std::string& v);

/// Cursor-style reader; every Get checks bounds and returns false on
/// truncation so decoders can surface Corruption. The getters are defined
/// here so every decoder (log records, tuples, index nodes, the catalog)
/// inlines them: each is one bounds check and one little-endian load.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> data) : data_(data) {}
  bool GetU8(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = data_[pos_++];
    return true;
  }
  bool GetU16(uint16_t* v) { return GetLE(v); }
  bool GetU32(uint32_t* v) { return GetLE(v); }
  bool GetU64(uint64_t* v) { return GetLE(v); }
  bool GetI64(int64_t* v) {
    uint64_t u;
    if (!GetU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }
  bool GetBytes(size_t n, std::span<const uint8_t>* v) {
    if (remaining() < n) return false;
    *v = data_.subspan(pos_, n);
    pos_ += n;
    return true;
  }
  bool GetString(std::string* v) {
    uint32_t len;
    if (!GetU32(&len)) return false;
    if (remaining() < len) return false;
    v->assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return true;
  }
  size_t remaining() const { return data_.size() - pos_; }
  size_t pos() const { return pos_; }
  /// The bytes consumed from offset `from` (<= pos()) up to the cursor.
  std::span<const uint8_t> ConsumedSince(size_t from) const {
    return data_.subspan(from, pos_ - from);
  }

 private:
  /// Loads an unsigned little-endian integer of sizeof(T) bytes.
  template <typename T>
  bool GetLE(T* v) {
    if (remaining() < sizeof(T)) return false;
    T r;
    std::memcpy(&r, data_.data() + pos_, sizeof(T));
    if constexpr (std::endian::native == std::endian::big) {
      T le = 0;
      for (size_t i = 0; i < sizeof(T); ++i) {
        le = static_cast<T>((le << 8) | ((r >> (8 * i)) & 0xFF));
      }
      r = le;
    }
    pos_ += sizeof(T);
    *v = r;
    return true;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};
}  // namespace wire

}  // namespace mmdb

#endif  // MMDB_CATALOG_SCHEMA_H_
