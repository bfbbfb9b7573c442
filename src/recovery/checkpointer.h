#ifndef MMDB_RECOVERY_CHECKPOINTER_H_
#define MMDB_RECOVERY_CHECKPOINTER_H_

#include <cstdint>

#include "log/slb.h"
#include "util/status.h"

namespace mmdb {

class Database;

/// Main-CPU side of checkpointing (paper §2.4).
///
/// The recovery CPU signals checkpoint work by entering a partition
/// address and a status flag into the SLB communication buffer. The
/// transaction manager, running on the main CPU, "checks the checkpoint
/// request queue in the Stable Log Buffer between transactions" and runs
/// a checkpoint transaction per request:
///
///   1. read lock on the partition's relation (transaction-consistent),
///   2. copy the partition at memory speed, release the lock,
///   3. allocate a free checkpoint-disk location (pseudo-circular queue;
///      new copies never overwrite old ones),
///   4. log the disk-allocation-map and catalog-entry updates,
///   5. write the partition image (a whole track) and commit,
///   6. the new location is installed atomically; the recovery CPU then
///      flushes the partition's remaining log info and resets its bin,
///   7. the devices release what recovery can no longer read: the
///      superseded image and the log below the log tail.
class Checkpointer {
 public:
  explicit Checkpointer(Database* db) : db_(db) {}

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Processes every pending request in the queue. Requests that cannot
  /// run yet (lock conflict, partition not resident) stay queued.
  Status Poll();

  uint64_t completed() const { return completed_; }
  uint64_t completed_update_count() const { return completed_update_; }
  uint64_t completed_age() const { return completed_age_; }
  uint64_t completed_forced() const { return completed_forced_; }

 private:
  /// Runs one request from `stream`'s SLB queue. In partitioned-log mode
  /// a partition's records are spread across every stream, so the bin
  /// flush/reset covers all streams while the finished request is cleared
  /// from the owning stream's queue only.
  Status RunOne(CheckpointRequest* req, uint32_t stream);

  /// The devices' retention rule, run once an install has committed: the
  /// checkpoint disk drops the superseded image in `old_slot` (if
  /// `had_old`), and every log stream drops its pages below its log
  /// tail — stream 0 only those already rolled onto the archive, which
  /// itself drops rolled pages below the tail. Recovery can read none of
  /// it again. Takes no virtual time.
  void ReleaseUnreadable(bool had_old, uint64_t old_slot);

  Database* db_;
  uint64_t completed_ = 0;
  uint64_t completed_update_ = 0;
  uint64_t completed_age_ = 0;
  uint64_t completed_forced_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_RECOVERY_CHECKPOINTER_H_
