#include "log/log_record.h"

#include "index/node_format.h"
#include "util/logging.h"

namespace mmdb {

namespace {
constexpr size_t kHeaderSize = LogRecord::kHeaderBytes;

size_t WireSize(LogOp op, size_t data_bytes) {
  switch (op) {
    case LogOp::kInsert:
    case LogOp::kUpdate:
      return kHeaderSize + 2 + data_bytes;
    case LogOp::kDelete:
      return kHeaderSize;
    case LogOp::kNodeInsertEntry:
    case LogOp::kNodeRemoveEntry:
      return kHeaderSize + 8 + 12;
  }
  return kHeaderSize;
}
}  // namespace

size_t LogRecord::SerializedSize() const { return WireSize(op, data.size()); }

size_t LogRecordView::SerializedSize() const {
  return WireSize(op, data.size());
}

void LogRecord::AppendTo(std::vector<uint8_t>* out) const {
  wire::PutU8(out, static_cast<uint8_t>(op));
  wire::PutU32(out, bin_index);
  wire::PutU64(out, txn_id);
  wire::PutU64(out, partition.Pack());
  wire::PutU32(out, slot);
  switch (op) {
    case LogOp::kInsert:
    case LogOp::kUpdate:
      MMDB_CHECK(data.size() <= 0xFFFF);
      wire::PutU16(out, static_cast<uint16_t>(data.size()));
      wire::PutBytes(out, data);
      break;
    case LogOp::kDelete:
      break;
    case LogOp::kNodeInsertEntry:
    case LogOp::kNodeRemoveEntry:
      wire::PutI64(out, key);
      node::PutAddr(out, child);
      break;
  }
}

LogRecordView LogRecord::View() const {
  LogRecordView v;
  v.op = op;
  v.bin_index = bin_index;
  v.txn_id = txn_id;
  v.partition = partition;
  v.slot = slot;
  v.data = data;
  v.key = key;
  v.child = child;
  v.epoch = epoch;
  v.csn = csn;
  return v;
}

Result<LogRecordView> ParseLogRecordView(wire::Reader* r, bool with_epoch) {
  const size_t start = r->pos();
  LogRecordView rec;
  if (with_epoch && (!r->GetU32(&rec.epoch) || !r->GetU64(&rec.csn))) {
    return Status::Corruption("truncated epoch frame");
  }
  uint8_t op;
  uint64_t part;
  if (!r->GetU8(&op) || !r->GetU32(&rec.bin_index) || !r->GetU64(&rec.txn_id) ||
      !r->GetU64(&part) || !r->GetU32(&rec.slot)) {
    return Status::Corruption("truncated log record header");
  }
  if (op < 1 || op > 5) return Status::Corruption("unknown log op");
  rec.op = static_cast<LogOp>(op);
  rec.partition = PartitionId::Unpack(part);
  switch (rec.op) {
    case LogOp::kInsert:
    case LogOp::kUpdate: {
      uint16_t len;
      if (!r->GetU16(&len)) return Status::Corruption("truncated log record");
      if (!r->GetBytes(len, &rec.data)) {
        return Status::Corruption("truncated log record payload");
      }
      break;
    }
    case LogOp::kDelete:
      break;
    case LogOp::kNodeInsertEntry:
    case LogOp::kNodeRemoveEntry: {
      if (!r->GetI64(&rec.key) || !r->GetU32(&rec.child.partition.segment) ||
          !r->GetU32(&rec.child.partition.number) ||
          !r->GetU32(&rec.child.slot)) {
        return Status::Corruption("truncated index log record");
      }
      break;
    }
  }
  rec.stored = r->ConsumedSince(start);
  return rec;
}

std::string LogRecord::ToString() const {
  const char* name = "?";
  switch (op) {
    case LogOp::kInsert: name = "INSERT"; break;
    case LogOp::kDelete: name = "DELETE"; break;
    case LogOp::kUpdate: name = "UPDATE"; break;
    case LogOp::kNodeInsertEntry: name = "NODE_INSERT"; break;
    case LogOp::kNodeRemoveEntry: name = "NODE_REMOVE"; break;
  }
  return std::string(name) + " txn=" + std::to_string(txn_id) + " part=" +
         partition.ToString() + " slot=" + std::to_string(slot);
}

Status ApplyLogRecord(const LogRecordView& rec, Partition* partition) {
  if (partition->id() != rec.partition) {
    return Status::InvalidArgument("record applied to wrong partition");
  }
  switch (rec.op) {
    case LogOp::kInsert:
      return partition->InsertAt(rec.slot, rec.data);
    case LogOp::kDelete:
      return partition->Delete(rec.slot);
    case LogOp::kUpdate:
      return partition->Update(rec.slot, rec.data);
    case LogOp::kNodeInsertEntry:
    case LogOp::kNodeRemoveEntry: {
      auto bytes = partition->Read(rec.slot);
      if (!bytes.ok()) return bytes.status();
      std::vector<uint8_t> node(bytes.value().begin(), bytes.value().end());
      node::Entry e{rec.key, rec.child};
      Status st = rec.op == LogOp::kNodeInsertEntry
                      ? node::InsertEntry(&node, e)
                      : node::RemoveEntry(&node, e);
      if (!st.ok()) return st;
      return partition->Update(rec.slot, node);
    }
  }
  return Status::InvalidArgument("bad log op");
}

LogRecord MakeUndo(const LogRecord& redo, std::span<const uint8_t> pre_image) {
  LogRecord undo;
  undo.bin_index = redo.bin_index;
  undo.txn_id = redo.txn_id;
  undo.partition = redo.partition;
  undo.slot = redo.slot;
  switch (redo.op) {
    case LogOp::kInsert:
      undo.op = LogOp::kDelete;
      break;
    case LogOp::kDelete:
      undo.op = LogOp::kInsert;
      undo.data.assign(pre_image.begin(), pre_image.end());
      break;
    case LogOp::kUpdate:
      undo.op = LogOp::kUpdate;
      undo.data.assign(pre_image.begin(), pre_image.end());
      break;
    case LogOp::kNodeInsertEntry:
      undo.op = LogOp::kNodeRemoveEntry;
      undo.key = redo.key;
      undo.child = redo.child;
      break;
    case LogOp::kNodeRemoveEntry:
      undo.op = LogOp::kNodeInsertEntry;
      undo.key = redo.key;
      undo.child = redo.child;
      break;
  }
  return undo;
}

}  // namespace mmdb
