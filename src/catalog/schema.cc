#include "catalog/schema.h"

#include <cstring>

namespace mmdb {

namespace wire {

void PutBytes(std::vector<uint8_t>* out, std::span<const uint8_t> v) {
  out->insert(out->end(), v.begin(), v.end());
}

void PutString(std::vector<uint8_t>* out, const std::string& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  out->insert(out->end(), v.begin(), v.end());
}

}  // namespace wire

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

int Schema::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status Schema::Validate(const Tuple& tuple) const {
  if (tuple.size() != columns_.size()) {
    return Status::InvalidArgument("tuple arity mismatch");
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    bool want_int = columns_[i].type == ColumnType::kInt64;
    bool is_int = std::holds_alternative<int64_t>(tuple[i]);
    if (want_int != is_int) {
      return Status::InvalidArgument("type mismatch in column " +
                                     columns_[i].name);
    }
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> Schema::Encode(const Tuple& tuple) const {
  MMDB_RETURN_IF_ERROR(Validate(tuple));
  size_t size = 0;
  for (size_t i = 0; i < columns_.size(); ++i) {
    size += columns_[i].type == ColumnType::kInt64
                ? 8
                : 4 + std::get<std::string>(tuple[i]).size();
  }
  std::vector<uint8_t> out;
  out.reserve(size);
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].type == ColumnType::kInt64) {
      wire::PutI64(&out, std::get<int64_t>(tuple[i]));
    } else {
      wire::PutString(&out, std::get<std::string>(tuple[i]));
    }
  }
  return out;
}

Result<Tuple> Schema::Decode(std::span<const uint8_t> data) const {
  wire::Reader r(data);
  Tuple tuple;
  tuple.reserve(columns_.size());
  for (const Column& c : columns_) {
    if (c.type == ColumnType::kInt64) {
      int64_t v;
      if (!r.GetI64(&v)) return Status::Corruption("truncated int64 field");
      tuple.emplace_back(v);
    } else {
      std::string s;
      if (!r.GetString(&s)) return Status::Corruption("truncated string field");
      tuple.emplace_back(std::move(s));
    }
  }
  if (r.remaining() != 0) {
    return Status::Corruption("trailing bytes after tuple");
  }
  return tuple;
}

std::vector<uint8_t> Schema::Serialize() const {
  std::vector<uint8_t> out;
  wire::PutU32(&out, static_cast<uint32_t>(columns_.size()));
  for (const Column& c : columns_) {
    wire::PutString(&out, c.name);
    wire::PutU8(&out, static_cast<uint8_t>(c.type));
  }
  return out;
}

Result<Schema> Schema::Deserialize(std::span<const uint8_t> data,
                                   size_t* consumed) {
  wire::Reader r(data);
  uint32_t n;
  if (!r.GetU32(&n)) return Status::Corruption("truncated schema");
  if (n > 4096) return Status::Corruption("implausible column count");
  std::vector<Column> cols;
  cols.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Column c;
    uint8_t type;
    if (!r.GetString(&c.name) || !r.GetU8(&type)) {
      return Status::Corruption("truncated schema column");
    }
    if (type > 1) return Status::Corruption("unknown column type");
    c.type = static_cast<ColumnType>(type);
    cols.push_back(std::move(c));
  }
  if (consumed != nullptr) *consumed = r.pos();
  return Schema(std::move(cols));
}

}  // namespace mmdb
