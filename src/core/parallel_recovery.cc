// Partition recovery (paper §2.5): one rebuild routine and the timing
// policies of its callers.
//
// RebuildPartition is the paper's one restore step — read the checkpoint
// image, read the partition's log-bin chain, REDO the records — as a
// time-functional routine: it charges the devices from a given ready time
// but charges no CPU for the apply, and leaves the clock and the install
// to its caller. Each caller keeps only its timing policy: the strictly
// serial policy below, the interleaved sweep (SweepRecoverPartition,
// core/sweep.cc), and the pipelined lane scheduler, which reuses the
// image-read half. In the lane scheduler up to
// DatabaseOptions::recovery_parallelism lanes restore one partition at a
// time, and within a partition the checkpoint-image transfer, the ordered
// log-page reads and the record apply overlap on the virtual timeline.
// Device contention — the checkpoint disk, the two duplexed log spindles,
// and each lane's CPU — is serialized by the devices' own busy-until
// queues; the EventScheduler merely guarantees requests reach every
// device in ready-time order, which makes the per-device service order
// FCFS and the whole schedule deterministic.

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/database.h"
#include "sim/scheduler.h"
#include "util/logging.h"

namespace mmdb {

Status Database::LoadPartitionImage(const RecoveryWorkItem& item,
                                    uint32_t bin_index, uint64_t ready_ns,
                                    std::unique_ptr<Partition>* out,
                                    uint64_t* done_ns) {
  if (item.ckpt_page == kNoCheckpointPage) {
    *out = std::make_unique<Partition>(item.pid, opts_.partition_size_bytes,
                                       bin_index);
    *done_ns = ready_ns;
    return Status::OK();
  }
  const uint32_t pages_per_slot =
      opts_.partition_size_bytes / opts_.log_page_bytes;
  std::vector<uint8_t> image;
  image.reserve(opts_.partition_size_bytes);
  uint64_t t = ready_ns;
  Status st;
  for (uint32_t attempt = 0;; ++attempt) {
    st = checkpoint_disk_->ReadTrackInto(item.ckpt_page, pages_per_slot, t,
                                         sim::SeekClass::kRandom, &image,
                                         done_ns);
    if (st.ok() || !st.IsIOError() ||
        attempt + 1 >= sim::kReadRetryAttempts) {
      break;
    }
    t += (attempt + 1) * sim::kReadRetryBackoffNs;
    m_disk_retries_->Add(1);
  }
  MMDB_RETURN_IF_ERROR(st);
  auto from = Partition::FromImage(std::move(image));
  if (!from.ok()) return from.status();
  if (!(from.value()->id() == item.pid)) {
    return Status::Corruption("checkpoint image is for wrong partition");
  }
  *out = std::move(from).value();
  return Status::OK();
}

Status Database::RestartApplySite(PartitionId pid, uint64_t now_ns) {
  if (!fault_->armed()) return Status::OK();
  // A crash here is a crash-within-recovery: the half-built partition is
  // volatile and simply rebuilt next time.
  fault::SiteEvent ev;
  ev.site = fault::Site::kRestartApply;
  ev.device = "recovery";
  ev.page_no = pid.Pack();
  ev.now_ns = now_ns;
  return fault_->OnSite(&ev);
}

Status Database::RebuildPartition(const RecoveryWorkItem& item,
                                  uint64_t ready_ns,
                                  std::unique_ptr<Partition>* out,
                                  uint64_t* io_done_ns,
                                  uint64_t* records_applied,
                                  uint64_t* pages_read) {
  auto bin_idx = slt_->FindBin(item.pid);
  if (!bin_idx.ok()) {
    return Status::Corruption("no Stable Log Tail bin for " +
                              item.pid.ToString());
  }
  std::unique_ptr<Partition> part;
  uint64_t t = ready_ns;
  MMDB_RETURN_IF_ERROR(
      LoadPartitionImage(item, bin_idx.value(), ready_ns, &part, &t));

  // The parsed records borrow these bytes until the apply ends: the one
  // stream of the bin, or one per log stream in partitioned-log mode.
  std::vector<uint8_t> stream;
  std::vector<std::vector<uint8_t>> stream_bytes;
  std::vector<LogRecordView> records;
  uint64_t pages = 0;
  if (extra_streams_.empty()) {
    // Ordered log page reads once the image is in: anchors backward, then
    // the chain forward (§2.5.1). Page payloads are byte ranges of the
    // bin's record stream; concatenate them plus the stable active page.
    std::vector<uint64_t> lsns;
    uint64_t backward = 0;
    MMDB_RETURN_IF_ERROR(
        recovery_->CollectPageList(bin_idx.value(), t, &lsns, &backward, &t));
    for (uint64_t lsn : lsns) {
      ParsedLogPage page;
      MMDB_RETURN_IF_ERROR(
          log_writer_->ReadPage(lsn, t, sim::SeekClass::kNear, &page, &t));
      stream.insert(stream.end(), page.payload.begin(), page.payload.end());
    }
    pages = lsns.size();
    auto bin = slt_->bin(bin_idx.value());
    if (bin.ok() && !bin.value()->active_page.empty()) {
      meter_->ChargeRead(bin.value()->active_page.size());
      stream.insert(stream.end(), bin.value()->active_page.begin(),
                    bin.value()->active_page.end());
    }
    MMDB_RETURN_IF_ERROR(ParseLogStream(stream, &records));
  } else {
    // Partitioned-log mode: each stream's chain reads on its own disk
    // pair from ready_ns on, overlapping the image transfer (different
    // devices), and the per-stream record sequences merge back into
    // group-commit order. The apply is gated on the slowest of them.
    uint64_t merged_done = ready_ns;
    MMDB_RETURN_IF_ERROR(CollectMergedRecords(bin_idx.value(), ready_ns,
                                              &stream_bytes, &records, &pages,
                                              &merged_done));
    t = std::max(t, merged_done);
  }

  MMDB_RETURN_IF_ERROR(RestartApplySite(item.pid, t));
  for (const LogRecordView& rec : records) {
    MMDB_RETURN_IF_ERROR(ApplyLogRecord(rec, part.get()));
  }
  *out = std::move(part);
  *io_done_ns = t;
  *records_applied = records.size();
  *pages_read = pages;
  return Status::OK();
}

Status Database::InstallRestored(std::unique_ptr<Partition> part) {
  const PartitionId pid = part->id();
  Status st = v_->pm.InstallRecovered(std::move(part));
  NoteSpaceFreed();
  MMDB_RETURN_IF_ERROR(st);
  // Catalog partitions recover before the catalog exists; their
  // descriptors live in the stable root instead.
  auto d = v_->catalog.FindDescriptor(pid);
  if (d.ok()) d.value()->resident = true;
  return Status::OK();
}

Status Database::RecoverPartitionsParallel(
    const std::vector<RecoveryWorkItem>& work, RestartReport* report) {
  if (work.empty()) return Status::OK();

  // Strictly serial policy: each partition's reads, then its apply on the
  // main CPU, one partition after another. It is the lanes=1
  // non-pipelined ablation baseline, and every restore in partitioned-log
  // mode, whose log chain already reads in parallel on the N streams'
  // own duplexed pairs (overlapping the image read inside the rebuild).
  if (!extra_streams_.empty() ||
      (!opts_.pipelined_recovery && opts_.recovery_parallelism <= 1)) {
    for (const RecoveryWorkItem& w : work) {
      std::unique_ptr<Partition> part;
      uint64_t io_done = 0, records = 0, pages = 0;
      MMDB_RETURN_IF_ERROR(RebuildPartition(w, clock_.now_ns(), &part,
                                            &io_done, &records, &pages));
      for (uint64_t i = 0; i < records; ++i) {
        main_cpu_.Execute(opts_.apply_instructions_per_record);
      }
      report->records_applied += records;
      report->log_pages_read += pages;
      clock_.AdvanceTo(io_done);
      main_cpu_.IdleUntil(clock_.now_ns());
      MMDB_RETURN_IF_ERROR(InstallRestored(std::move(part)));
      ++report->partitions_recovered;
    }
    return Status::OK();
  }

  const uint64_t t0 = clock_.now_ns();
  const double apply_ns_per_record =
      opts_.apply_instructions_per_record * main_cpu_.ns_per_instruction();
  const size_t lanes = std::min<size_t>(
      std::max<uint32_t>(1, opts_.recovery_parallelism), work.size());

  sim::EventScheduler sched;
  // At most one pending event per lane (plus the install chained off it):
  // a small reservation makes every submission allocation-free.
  sched.Reserve(2 * lanes + 8);
  std::vector<sim::DeviceTimeline> lane_cpu;
  lane_cpu.reserve(lanes);
  for (size_t i = 0; i < lanes; ++i) {
    lane_cpu.emplace_back("lane-" + std::to_string(i));
  }

  /// One in-flight partition restore (a lane runs one at a time).
  struct Task {
    PartitionId pid;
    uint32_t bin_index = 0;
    uint64_t start_ns = 0;
    uint64_t walk_start_ns = 0;
    uint64_t image_done_ns = 0;
    uint64_t first_page_lsn = 0;
    std::unique_ptr<Partition> part;
    /// Backward-walk work list; once the walk reaches the bin's first
    /// page it is the complete in-order LSN list.
    std::vector<uint64_t> known;
  };

  size_t next_item = 0;

  // A span on a lane's track, named after its partition; the name is
  // only built when tracing is on.
  auto lane_span = [&](size_t lane, const char* what, PartitionId pid,
                       uint64_t start_ns, uint64_t dur_ns) {
    if (!tracer_.enabled()) return;
    tracer_.Span(obs::LaneTrack(static_cast<uint32_t>(lane)), "recovery",
                 std::string(what) + " " + pid.ToString(), start_ns, dur_ns);
  };

  std::function<void(size_t, uint64_t)> start_task;
  std::function<void(size_t, std::shared_ptr<Task>, uint64_t)> walk_step;
  std::function<void(size_t, std::shared_ptr<Task>, uint64_t)> read_and_apply;

  // Pulls the next unassigned work item onto `lane` at time `now`.
  start_task = [&](size_t lane, uint64_t now) {
    if (next_item >= work.size()) return;  // lane drains
    const RecoveryWorkItem item = work[next_item++];
    auto task = std::make_shared<Task>();
    task->pid = item.pid;
    task->start_ns = now;

    auto bin_idx = slt_->FindBin(item.pid);
    if (!bin_idx.ok()) {
      sched.Fail(Status::Corruption("no Stable Log Tail bin for " +
                                    item.pid.ToString()));
      return;
    }
    task->bin_index = bin_idx.value();

    // Checkpoint-image transfer. The read is submitted now, so the
    // checkpoint disk sees lanes' requests in ready-time order; its
    // completion time is known immediately and everything downstream
    // that touches partition memory is gated on it.
    Status st = LoadPartitionImage(item, task->bin_index, now, &task->part,
                                   &task->image_done_ns);
    if (!st.ok()) {
      sched.Fail(st);
      return;
    }
    if (item.ckpt_page != kNoCheckpointPage) {
      lane_span(lane, "image", item.pid, now, task->image_done_ns - now);
    }

    // Backward anchor walk (§2.5.1): overlaps the image transfer when
    // pipelining; without it, the log phase waits for the image.
    auto bin = slt_->bin(task->bin_index);
    if (!bin.ok()) {
      sched.Fail(bin.status());
      return;
    }
    task->walk_start_ns =
        opts_.pipelined_recovery ? now : task->image_done_ns;
    if (bin.value()->has_disk_pages()) {
      task->known = bin.value()->directory;
      task->first_page_lsn = bin.value()->first_page_lsn;
      sched.At(task->walk_start_ns, [&, lane, task](uint64_t t) {
        walk_step(lane, task, t);
      });
    } else {
      sched.At(task->walk_start_ns, [&, lane, task](uint64_t t) {
        read_and_apply(lane, task, t);
      });
    }
  };

  // One backward step: read the oldest known anchor, prepend its
  // directory, continue at the read's completion time.
  walk_step = [&](size_t lane, std::shared_ptr<Task> task, uint64_t now) {
    if (task->known.front() != task->first_page_lsn) {
      ParsedLogPage page;
      uint64_t done = 0;
      Status st = log_writer_->ReadPageAny(task->known.front(), now,
                                           sim::SeekClass::kNear, &page,
                                           &done);
      if (!st.ok()) {
        sched.Fail(st);
        return;
      }
      if (page.directory.empty()) {
        sched.Fail(Status::Corruption(
            "expected anchor page while walking bin " +
            std::to_string(task->bin_index)));
        return;
      }
      task->known.insert(task->known.begin(), page.directory.begin(),
                         page.directory.end());
      sched.At(done, [&, lane, task](uint64_t t) {
        walk_step(lane, task, t);
      });
      return;
    }
    read_and_apply(lane, task, now);
  };

  // Forward page reads fanned across the duplexed pair, with the apply
  // chain running on this lane's CPU as the stream prefix arrives.
  read_and_apply = [&](size_t lane, std::shared_ptr<Task> task,
                       uint64_t now) {
    std::vector<uint8_t> stream;
    std::vector<size_t> chunk_end;      // stream offset after each chunk
    std::vector<uint64_t> chunk_avail;  // prefix-max completion time
    uint64_t last_read_done = now;
    for (uint64_t lsn : task->known) {
      ParsedLogPage page;
      uint64_t done = 0;
      Status st = log_writer_->ReadPageAny(lsn, now, sim::SeekClass::kNear,
                                           &page, &done);
      if (!st.ok()) {
        sched.Fail(st);
        return;
      }
      stream.insert(stream.end(), page.payload.begin(), page.payload.end());
      // The stream is consumed in LSN order, so a page's bytes are usable
      // only once every earlier page has also arrived: prefix max.
      last_read_done = std::max(last_read_done, done);
      chunk_end.push_back(stream.size());
      chunk_avail.push_back(last_read_done);
      ++report->log_pages_read;
    }
    if (!task->known.empty()) {
      lane_span(lane, "log", task->pid, task->walk_start_ns,
                last_read_done - task->walk_start_ns);
    }

    // The bin's stable active page: a stable-memory read, no disk time.
    auto bin = slt_->bin(task->bin_index);
    if (!bin.ok()) {
      sched.Fail(bin.status());
      return;
    }
    if (!bin.value()->active_page.empty()) {
      meter_->ChargeRead(bin.value()->active_page.size());
      stream.insert(stream.end(), bin.value()->active_page.begin(),
                    bin.value()->active_page.end());
      chunk_end.push_back(stream.size());
      chunk_avail.push_back(last_read_done);
    }

    std::vector<LogRecordView> records;
    Status st = ParseLogStream(stream, &records);
    if (!st.ok()) {
      sched.Fail(st);
      return;
    }

    st = RestartApplySite(task->pid, now);
    if (!st.ok()) {
      sched.Fail(st);
      return;
    }

    // Apply chain: a record is applicable once the chunk holding its last
    // byte has arrived (pipelined) or once everything has (non-pipelined)
    // — and never before the image is in memory. Batched per chunk on the
    // lane's CPU timeline.
    uint64_t apply_done = task->image_done_ns;
    uint64_t first_apply_start = 0;
    bool any_apply = false;
    size_t rec_i = 0;
    for (size_t c = 0; c < chunk_end.size(); ++c) {
      uint64_t data_ready =
          opts_.pipelined_recovery ? chunk_avail[c] : chunk_avail.back();
      uint64_t n = 0;
      while (rec_i < records.size()) {
        const LogRecordView& rec = records[rec_i];
        size_t rec_end = static_cast<size_t>(
            rec.stored.data() + rec.stored.size() - stream.data());
        if (rec_end > chunk_end[c]) break;  // completes in a later chunk
        Status ast = ApplyLogRecord(rec, task->part.get());
        if (!ast.ok()) {
          sched.Fail(ast);
          return;
        }
        ++rec_i;
        ++n;
      }
      if (n == 0) continue;
      uint64_t ready = std::max(data_ready, apply_done);
      uint64_t start = std::max(ready, lane_cpu[lane].busy_until_ns());
      if (!any_apply) {
        first_apply_start = start;
        any_apply = true;
      }
      apply_done = lane_cpu[lane].Occupy(
          ready,
          static_cast<uint64_t>(static_cast<double>(n) * apply_ns_per_record));
      main_cpu_.AccountInstructions(static_cast<double>(n) *
                                    opts_.apply_instructions_per_record);
      report->records_applied += n;
    }
    MMDB_CHECK(rec_i == records.size());
    if (any_apply) {
      lane_span(lane, "apply", task->pid, first_apply_start,
                apply_done - first_apply_start);
    }

    uint64_t finish = std::max({apply_done, last_read_done,
                                task->image_done_ns});
    sched.At(finish, [&, lane, task](uint64_t t) {
      Status ist = InstallRestored(std::move(task->part));
      if (!ist.ok()) {
        sched.Fail(ist);
        return;
      }
      ++report->partitions_recovered;
      lane_span(lane, "recover", task->pid, task->start_ns,
                t - task->start_ns);
      start_task(lane, t);  // lane pulls its next partition
    });
  };

  for (size_t lane = 0; lane < lanes; ++lane) {
    sched.At(t0, [&, lane](uint64_t now) { start_task(lane, now); });
  }
  MMDB_RETURN_IF_ERROR(sched.Run());

  // The last event is the latest task finish: the batch's virtual end.
  clock_.AdvanceTo(std::max(sched.now_ns(), t0));
  main_cpu_.IdleUntil(clock_.now_ns());
  for (size_t lane = 0; lane < lanes; ++lane) {
    m_lane_busy_ns_->Record(static_cast<double>(lane_cpu[lane].busy_total_ns()));
  }
  return Status::OK();
}

}  // namespace mmdb
