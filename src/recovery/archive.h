#ifndef MMDB_RECOVERY_ARCHIVE_H_
#define MMDB_RECOVERY_ARCHIVE_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "log/log_disk.h"
#include "sim/disk.h"
#include "storage/addr.h"
#include "util/status.h"

namespace mmdb {

/// Archive component (paper §2.6).
///
/// The disk copy of the database (checkpoint images + log) is the archive
/// for the primary memory copy, but the disks themselves need an archive
/// (tape or optical disk) against media failure. This manager models the
/// archive medium as stable storage that keeps what media recovery can
/// still use:
///
///  * every committed checkpoint image is also archived (the latest per
///    partition), and
///  * log pages are rolled onto the archive as the log window advances
///    past them ("the recovery component releases control of a log disk
///    when that disk is transferred to the archive component to roll the
///    contents of the disk onto tape"); rolled pages below the log tail
///    are released again (ReleaseLogBelow).
///
/// `RecoverCheckpointDisk` implements media recovery for the checkpoint
/// disk: it rewrites every partition's latest archived image back to its
/// recorded slot. Because a partition's bin retains all log records
/// written since its last checkpoint, ordinary post-crash partition
/// recovery then reproduces the current state.
class ArchiveManager {
 public:
  ArchiveManager() = default;

  ArchiveManager(const ArchiveManager&) = delete;
  ArchiveManager& operator=(const ArchiveManager&) = delete;

  /// Archives a committed checkpoint image of `pid` that lives at
  /// checkpoint-disk page `first_page` (track of `pages` pages). The
  /// archive keeps the refs, sharing the buffers the checkpoint disk holds.
  void ArchiveCheckpointImage(PartitionId pid, uint64_t first_page,
                              std::vector<sim::PageRef> pages);

  /// Rolls log pages with LSN < `up_to_lsn` from the log disk onto the
  /// archive (idempotent; already-rolled pages are skipped). Each page is
  /// read through the duplex (so the disk timeline and counters advance as
  /// for any read) and the verified ref is kept, not copied.
  Status RollLog(sim::DuplexedDisk* log_disks, uint64_t up_to_lsn);

  /// Drops archived log pages below `lsn`, the log tail: no chain that
  /// recovery can still walk reaches below it. Pages between the tail and
  /// the rolled-up-to point stay, since lagging chains can still need
  /// them.
  void ReleaseLogBelow(uint64_t lsn) {
    log_pages_.erase(log_pages_.begin(), log_pages_.lower_bound(lsn));
  }

  /// Every log page below this LSN has been rolled (read off the log
  /// disks) already.
  uint64_t rolled_up_to() const { return rolled_up_to_; }

  /// Media recovery: restore every archived partition image onto the
  /// (repaired) checkpoint disk at its recorded location.
  Status RecoverCheckpointDisk(sim::Disk* checkpoint_disk, uint64_t now_ns,
                               uint64_t* done_ns);

  uint64_t archived_images() const { return archived_images_; }
  uint64_t archived_log_pages() const { return archived_log_pages_; }

  /// Archived log pages still at or above the log tail (LSN → raw page
  /// bytes). The re-silverer restores from here any page the healthy
  /// duplex member can no longer serve (e.g. a latent-corrupt sector
  /// discovered during the copy).
  const std::map<uint64_t, sim::PageRef>& log_page_archive() const {
    return log_pages_;
  }

 private:
  struct ImageCopy {
    uint64_t first_page;
    std::vector<sim::PageRef> pages;
  };

  // Latest archived image per partition (tape would keep all; media
  // recovery only needs the latest plus the retained log).
  std::unordered_map<PartitionId, ImageCopy> images_;
  std::map<uint64_t, sim::PageRef> log_pages_;
  uint64_t rolled_up_to_ = 0;
  uint64_t archived_images_ = 0;
  uint64_t archived_log_pages_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_RECOVERY_ARCHIVE_H_
