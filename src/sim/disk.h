#ifndef MMDB_SIM_DISK_H_
#define MMDB_SIM_DISK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace mmdb::sim {

/// Timing and geometry parameters of a simulated disk.
///
/// Defaults model the paper's "two-head-per-surface high-performance disk
/// drive" (Section 3.1): relatively low seek times, track transfers at
/// double the per-page rate (partitions are written in whole tracks; log
/// pages individually on interleaved sectors so consecutive page writes
/// need no extra rotational delay beyond one sector of think time).
struct DiskParams {
  uint32_t page_size_bytes = 8 * 1024;
  /// Pages per track; with 8KB pages and 48KB partitions a partition is
  /// exactly one track, matching the paper's "partitions are written in
  /// whole tracks".
  uint32_t pages_per_track = 6;
  /// Random (average) seek, used for checkpoint-image reads/writes.
  double avg_seek_ms = 8.0;
  /// Short seek between nearby cylinders, used between sibling log pages
  /// of one partition ("each page will be relatively close to its sibling").
  double near_seek_ms = 2.0;
  /// Head settle / rotational latency component charged per operation.
  double settle_ms = 0.5;
  /// Transfer time for one page at the individual-page rate.
  double page_transfer_ms = 0.4;
  /// Track transfers run at double the individual-page rate.
  double track_rate_multiplier = 2.0;
};

/// Bounded retry policy for transient disk read errors: callers in the
/// log/checkpoint/restart read paths retry IOError up to
/// `kReadRetryAttempts` total attempts, backing the virtual clock off by
/// `attempt * kReadRetryBackoffNs` between attempts.
inline constexpr uint32_t kReadRetryAttempts = 3;
inline constexpr uint64_t kReadRetryBackoffNs = 500'000;  // 0.5 ms

/// The bytes of one stored page, immutable and shared. A writer builds a
/// page once and hands the same ref to every device that keeps it — both
/// members of a duplexed pair, the archive, a checkpoint image's disk
/// slot — so a page costs one buffer however many copies the simulated
/// hardware holds. Nothing writes through a ref: a fault that changes a
/// device's stored bytes (latent corruption, a torn write) first gives
/// that device a private copy, so the other holders never see it.
using PageRef = std::shared_ptr<const std::vector<uint8_t>>;

inline PageRef MakePage(std::vector<uint8_t> bytes) {
  return std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
}

/// Kinds of positioning cost for an access.
enum class SeekClass {
  kSequential,  // head already positioned (e.g. circular-queue head)
  kNear,        // short seek (sibling log pages)
  kRandom,      // average seek (checkpoint image anywhere on disk)
};

/// A single simulated disk: a persistent page store plus a service
/// timeline.
///
/// Contents survive `Database::Crash()` (the object simply is not
/// destroyed); `FailMedia()` simulates a media failure for archive-recovery
/// tests by dropping all stored pages and failing subsequent reads until
/// `RepairMedia()` is called.
///
/// Every stored page carries a device-level CRC ("sector checksum")
/// computed when the page is written. Reads verify it and return
/// Status::Corruption on mismatch, which is how injected latent sector
/// corruption surfaces. Torn writes stay CRC-consistent at the device
/// level (each sector is internally whole) and are only detectable by
/// content-level checks such as the log-page payload CRC.
///
/// Pages are stored as shared immutable `PageRef`s (one map entry of
/// bytes + device CRC per page). The `disk.read` fault hook and torn
/// writes, the only paths that change stored bytes, work on a private
/// copy that then replaces this disk's ref alone.
///
/// Timing model: the disk serializes requests on its own `busy_until`
/// timeline. A request submitted at time `t` starts at max(t, busy_until)
/// and completes after positioning + transfer. Callers get the completion
/// time back and decide whether to block on it (synchronous read) or not
/// (the recovery CPU fires page writes and keeps sorting).
class Disk {
 public:
  Disk(std::string name, DiskParams params)
      : name_(std::move(name)), params_(params) {}

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  const std::string& name() const { return name_; }
  const DiskParams& params() const { return params_; }

  /// Registers this disk's metric series (`disk.<name>.*`) with `reg`:
  /// read/write counters plus an observed-latency histogram per
  /// direction (queueing + positioning + transfer, virtual ns).
  void AttachMetrics(obs::MetricsRegistry* reg);

  /// Arms the fault hooks at this disk's `disk.write` / `disk.read`
  /// sites; pass null (the default state) to leave them as no-ops.
  void SetFaultInjector(fault::FaultInjector* inj) { fault_ = inj; }

  /// Submit a one-page write; the disk keeps `data` itself, not a copy.
  /// Returns the completion time (ns).
  uint64_t WritePage(uint64_t page_no, PageRef data, uint64_t now_ns,
                     SeekClass seek);

  /// Submit a whole-track write (`pages` consecutive pages starting at
  /// `first_page_no`) at the track transfer rate.
  uint64_t WriteTrack(uint64_t first_page_no, const std::vector<PageRef>& pages,
                      uint64_t now_ns, SeekClass seek);

  /// Read one page. On success sets `*data` to the stored bytes (shared,
  /// not copied) and returns the completion time via `*done_ns`.
  Status ReadPage(uint64_t page_no, uint64_t now_ns, SeekClass seek,
                  PageRef* data, uint64_t* done_ns);

  /// Read `pages` consecutive pages at the track rate, appending the
  /// bytes directly to `*out` (no per-page vectors: checkpoint images are
  /// consumed as one contiguous buffer).
  Status ReadTrackInto(uint64_t first_page_no, uint32_t pages, uint64_t now_ns,
                       SeekClass seek, std::vector<uint8_t>* out,
                       uint64_t* done_ns);

  bool Contains(uint64_t page_no) const {
    return store_.find(page_no) != store_.end();
  }

  /// True when the page is stored and its device CRC verifies. Used by
  /// the re-silverer to skip pages already copied (idempotent resume).
  bool PageClean(uint64_t page_no) const;

  /// All stored page numbers in ascending order (deterministic
  /// enumeration for re-silvering).
  std::vector<uint64_t> StoredPageNumbers() const;

  /// Drops the stored pages among `pages` consecutive page numbers from
  /// `first_page_no` (numbers never written are skipped). The owner has
  /// freed that space for reuse and no recovery path reads it again, so
  /// the simulator stops holding the bytes. The device does nothing: no
  /// virtual time, no counters, no fault hook.
  void Discard(uint64_t first_page_no, uint64_t pages);

  /// Simulated media failure: drops all pages; reads fail until repaired.
  void FailMedia() {
    failed_ = true;
    store_.clear();
  }
  void RepairMedia() { failed_ = false; }
  bool media_failed() const { return failed_; }

  uint64_t busy_until_ns() const { return busy_until_ns_; }

  // --- statistics ---------------------------------------------------------
  uint64_t pages_written() const { return pages_written_; }
  uint64_t pages_read() const { return pages_read_; }
  uint64_t tracks_written() const { return tracks_written_; }
  uint64_t seeks() const { return seeks_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t bytes_read() const { return bytes_read_; }
  double busy_ms_total() const { return busy_ns_total_ * 1e-6; }

 private:
  uint64_t PositioningNs(SeekClass seek) const;
  uint64_t BeginOp(uint64_t now_ns) {
    return now_ns > busy_until_ns_ ? now_ns : busy_until_ns_;
  }

  /// One stored page: its bytes and the device CRC computed at write time.
  struct StoredPage {
    PageRef bytes;
    uint32_t crc = 0;
  };

  /// Write path shared by WritePage and DuplexedDisk, which computes the
  /// device CRC once for both members.
  uint64_t WriteStored(uint64_t page_no, const StoredPage& page,
                       uint64_t now_ns, SeekClass seek);
  /// Fires the disk.read hook and verifies the device CRC for one stored
  /// page. Returns non-OK on injected errors or CRC mismatch. The hook
  /// sees a private copy of the bytes; if it changed them (latent
  /// corruption), the copy replaces this disk's ref and keeps the old CRC.
  Status CheckReadPage(uint64_t page_no, StoredPage* stored, uint64_t now_ns);
  /// The stored page, or NotFound.
  Result<StoredPage*> Find(uint64_t page_no);
  void NoteWrite(uint64_t pages, uint64_t bytes, uint64_t now_ns,
                 uint64_t done_ns) {
    if (m_pages_written_ == nullptr) return;
    m_pages_written_->Add(pages);
    m_bytes_written_->Add(bytes);
    m_write_ns_->Record(static_cast<double>(done_ns - now_ns));
  }
  void NoteRead(uint64_t pages, uint64_t bytes, uint64_t now_ns,
                uint64_t done_ns) {
    if (m_pages_read_ == nullptr) return;
    m_pages_read_->Add(pages);
    m_bytes_read_->Add(bytes);
    m_read_ns_->Record(static_cast<double>(done_ns - now_ns));
  }

  std::string name_;
  DiskParams params_;
  std::unordered_map<uint64_t, StoredPage> store_;
  bool failed_ = false;
  fault::FaultInjector* fault_ = nullptr;

  uint64_t busy_until_ns_ = 0;
  uint64_t pages_written_ = 0;
  uint64_t pages_read_ = 0;
  uint64_t tracks_written_ = 0;
  uint64_t seeks_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t bytes_read_ = 0;
  double busy_ns_total_ = 0;

  // Optional registry series (null until AttachMetrics).
  obs::Counter* m_pages_written_ = nullptr;
  obs::Counter* m_pages_read_ = nullptr;
  obs::Counter* m_bytes_written_ = nullptr;
  obs::Counter* m_bytes_read_ = nullptr;
  obs::Histogram* m_write_ns_ = nullptr;
  obs::Histogram* m_read_ns_ = nullptr;

  friend class DuplexedDisk;
};

/// A duplexed pair of disks (the paper's log disks are duplexed).
///
/// Writes go to both members, which share one page buffer and one
/// device CRC; the logical completion time is the later of the two.
/// Reads try one member and fall back to the other on any per-page
/// failure (corrupt CRC, media failure, transient error), not just
/// whole-media loss; the duplex surfaces an error only when both
/// copies fail, preferring the more diagnostic status (Corruption over
/// IOError over NotFound).
class DuplexedDisk {
 public:
  DuplexedDisk(std::string name, DiskParams params)
      : name_(std::move(name)),
        primary_(name_ + "-a", params),
        mirror_(name_ + "-b", params) {}

  void AttachMetrics(obs::MetricsRegistry* reg) {
    primary_.AttachMetrics(reg);
    mirror_.AttachMetrics(reg);
    m_fallbacks_ = reg->counter("disk." + name_ + ".mirror_fallbacks");
  }

  void SetFaultInjector(fault::FaultInjector* inj) {
    primary_.SetFaultInjector(inj);
    mirror_.SetFaultInjector(inj);
  }

  /// Stores `data` on both members: one buffer, one device CRC.
  uint64_t WritePage(uint64_t page_no, PageRef data, uint64_t now_ns,
                     SeekClass seek);

  /// Read preferring the primary, transparently retrying the mirror on a
  /// per-page failure.
  Status ReadPage(uint64_t page_no, uint64_t now_ns, SeekClass seek,
                  PageRef* data, uint64_t* done_ns) {
    return ReadWithFallback(&primary_, &mirror_, page_no, now_ns, seek, data,
                            done_ns);
  }

  /// Read served by whichever member's queue frees up sooner (both hold
  /// every page, so concurrent recovery lanes can fan reads across the
  /// pair), falling back to the other member on per-page failure. Ties go
  /// to the primary, so the choice is deterministic.
  Status ReadPageAny(uint64_t page_no, uint64_t now_ns, SeekClass seek,
                     PageRef* data, uint64_t* done_ns) {
    Disk* first = &primary_;
    Disk* second = &mirror_;
    if (primary_.media_failed() ||
        (!mirror_.media_failed() &&
         mirror_.busy_until_ns() < primary_.busy_until_ns())) {
      first = &mirror_;
      second = &primary_;
    }
    return ReadWithFallback(first, second, page_no, now_ns, seek, data,
                            done_ns);
  }

  /// Drops the pages on both members (see Disk::Discard).
  void Discard(uint64_t first_page_no, uint64_t pages) {
    primary_.Discard(first_page_no, pages);
    mirror_.Discard(first_page_no, pages);
  }

  uint64_t mirror_fallbacks() const { return mirror_fallbacks_; }

  const std::string& name() const { return name_; }
  Disk& primary() { return primary_; }
  Disk& mirror() { return mirror_; }
  const Disk& primary() const { return primary_; }
  const Disk& mirror() const { return mirror_; }

  /// Member access by index (0 = primary, 1 = mirror), for re-silvering.
  Disk& member(int i) { return i == 0 ? primary_ : mirror_; }
  const Disk& member(int i) const { return i == 0 ? primary_ : mirror_; }

 private:
  Status ReadWithFallback(Disk* first, Disk* second, uint64_t page_no,
                          uint64_t now_ns, SeekClass seek, PageRef* data,
                          uint64_t* done_ns);

  std::string name_;
  Disk primary_;
  Disk mirror_;
  uint64_t mirror_fallbacks_ = 0;
  obs::Counter* m_fallbacks_ = nullptr;
};

}  // namespace mmdb::sim

#endif  // MMDB_SIM_DISK_H_
