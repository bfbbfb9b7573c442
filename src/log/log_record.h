#ifndef MMDB_LOG_LOG_RECORD_H_
#define MMDB_LOG_LOG_RECORD_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "storage/addr.h"
#include "storage/partition.h"
#include "util/status.h"

namespace mmdb {

/// REDO/UNDO operations on a single partition.
///
/// The paper (§2.3.2): "A log record corresponds to an entity in a
/// partition: a relation tuple or an index structure component... Log
/// records have different formats depending on the type of database
/// entity... All log records have four main parts:
/// TAG | Bin Index | Tran Id | Operation."
///
/// A given log record always affects exactly one partition (§2.5.1).
enum class LogOp : uint8_t {
  /// Insert an entity image at a specific slot.
  kInsert = 1,
  /// Delete the entity at a slot.
  kDelete = 2,
  /// Replace the entity at a slot with a full post-image (also used for
  /// index structural changes: rotations, splits, pointer updates).
  kUpdate = 3,
  /// Insert one (key, addr) entry into the index node at a slot. This is
  /// the common small index log record (~paper's 8-24 byte records).
  kNodeInsertEntry = 4,
  /// Remove one (key, addr) entry from the index node at a slot.
  kNodeRemoveEntry = 5,
};

struct LogRecordView;

/// One REDO (or, in the volatile UNDO space, UNDO) log record that owns
/// its payload: built by transactions (SLB appends) and by MakeUndo.
/// Records read back from stable memory or the log disks are never
/// materialized as LogRecords; they are parsed into LogRecordViews.
struct LogRecord {
  LogOp op = LogOp::kInsert;
  uint32_t bin_index = 0;  // direct index into the Stable Log Tail bin table
  uint64_t txn_id = 0;
  PartitionId partition;
  uint32_t slot = 0;
  // Payload for kInsert / kUpdate: the entity image.
  std::vector<uint8_t> data;
  // Payload for kNode*Entry: one index entry.
  int64_t key = 0;
  EntityAddr child;

  /// Commit-epoch stamp (partitioned-log mode, DatabaseOptions::
  /// log_streams > 1): the group-commit epoch the owning transaction
  /// committed in, and its global commit sequence number. Not part of the
  /// legacy wire format — multi-stream log pages carry both in a 12-byte
  /// [epoch u32 | csn u64] frame prefix before each record, so the
  /// single-stream on-disk format stays byte-identical.
  uint32_t epoch = 0;
  uint64_t csn = 0;

  /// Size of the epoch frame prefix in multi-stream log pages.
  static constexpr size_t kEpochFrameBytes = 4 + 8;

  /// The common header — op(1) + bin(4) + txn(8) + partition(8) +
  /// slot(4) — and so the size of the smallest record, a delete.
  static constexpr size_t kHeaderBytes = 1 + 4 + 8 + 8 + 4;

  /// Exact on-wire size in bytes (header + payload), excluding any epoch
  /// frame prefix.
  size_t SerializedSize() const;

  void AppendTo(std::vector<uint8_t>* out) const;

  /// A view of this record; its `data` borrows this record's payload and
  /// its `stored` is empty (the record was never serialized).
  LogRecordView View() const;

  std::string ToString() const;
};

/// A parsed log record that borrows its bytes: the fields of LogRecord,
/// with `data` a span into the buffer the record was parsed from. Valid
/// only while that buffer lives and is not modified.
struct LogRecordView {
  LogOp op = LogOp::kInsert;
  uint32_t bin_index = 0;
  uint64_t txn_id = 0;
  PartitionId partition;
  uint32_t slot = 0;
  std::span<const uint8_t> data;
  int64_t key = 0;
  EntityAddr child;
  uint32_t epoch = 0;
  uint64_t csn = 0;
  /// The bytes the view was parsed from: the record's wire image,
  /// preceded by its epoch frame when it was parsed with one. Copying
  /// them moves the record without re-serializing it.
  std::span<const uint8_t> stored;

  /// Exact on-wire size in bytes, excluding any epoch frame prefix.
  size_t SerializedSize() const;
};

/// Parses one record at the reader's cursor, preceded by its epoch frame
/// when `with_epoch` is set. The only log-record parser: on success every
/// span of the view lies inside the reader's buffer; malformed or
/// truncated input ends in Corruption.
Result<LogRecordView> ParseLogRecordView(wire::Reader* r,
                                         bool with_epoch = false);

/// Applies a single REDO (or UNDO) record to its partition. Records are
/// deterministic: applying the committed record sequence, in commit
/// order, to a transaction-consistent checkpoint image reproduces the
/// partition exactly.
Status ApplyLogRecord(const LogRecordView& rec, Partition* partition);

/// Builds the UNDO (inverse) record for a REDO record given the
/// pre-image state. `pre_image` is the entity's bytes before the change
/// (required for kUpdate and kDelete; ignored otherwise).
LogRecord MakeUndo(const LogRecord& redo, std::span<const uint8_t> pre_image);

}  // namespace mmdb

#endif  // MMDB_LOG_LOG_RECORD_H_
