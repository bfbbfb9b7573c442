// Heat-ordered, interleavable background recovery sweep (paper §2.5).
//
// The sweep queue holds every non-resident partition. Under kOnDemand it
// is ordered by access heat: every resident partition reference bumps a
// per-partition counter, Crash() harvests the counts, and the post-crash
// sweep restores the hottest partitions first — under a Zipf workload the
// partitions transactions are about to fault on anyway. Under kFullReload
// it keeps catalog order: a full reload restores everything anyway, and
// its restart timings are baselined on the catalog scan's seek pattern.
// The queue is shared between BackgroundRecoveryStep (explicit stepping)
// and the concurrent executor's interleaved sweep lanes
// (src/txn/executor.cc), so the two never double-recover a partition.
//
// SweepRecoverPartition / InstallSweepPartition split a sweep restore
// into the time-functional rebuild (RebuildPartition, core/
// parallel_recovery.cc) with the apply charged to a sweep lane, and a
// separate install, so the rebuild can run as events on the unified
// scheduler between transaction operations: the rebuild never touches the
// global clock or the partition manager, and the install — which does
// mutate shared state — happens at a well-defined virtual instant on the
// event loop.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "sim/scheduler.h"
#include "util/logging.h"

namespace mmdb {

void Database::EnsureSweepQueue() {
  if (bg_queue_epoch_ == ddl_epoch_) return;
  bg_queue_.clear();
  bg_queue_pos_ = 0;
  bg_queue_epoch_ = ddl_epoch_;

  struct Entry {
    RecoveryWorkItem item;
    uint64_t heat;
    uint64_t pack;
  };
  std::vector<Entry> entries;
  auto heat_of = [&](PartitionId pid) -> uint64_t {
    auto it = partition_heat_.find(pid.Pack());
    return it == partition_heat_.end() ? 0 : it->second;
  };
  auto add_chain = [&](const std::vector<PartitionDescriptor>& parts) {
    for (const PartitionDescriptor& d : parts) {
      if (d.resident) continue;
      entries.push_back(Entry{RecoveryWorkItem{d.id, d.checkpoint_page},
                              heat_of(d.id), d.id.Pack()});
    }
  };
  for (const RelationInfo* rc : v_->catalog.AllRelations()) {
    add_chain(rc->partitions);
    for (const std::string& iname : rc->index_names) {
      auto idx = v_->catalog.GetIndex(iname);
      if (idx.ok()) add_chain(idx.value()->partitions);
    }
  }
  // kFullReload keeps the catalog order the entries were built in.
  if (opts_.restart_policy != RestartPolicy::kFullReload) {
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry& a, const Entry& b) {
                       if (a.heat != b.heat) return a.heat > b.heat;
                       return a.pack < b.pack;
                     });
  }
  bg_queue_.reserve(entries.size());
  for (Entry& e : entries) bg_queue_.push_back(e.item);
}

bool Database::NextSweepItem(RecoveryWorkItem* item) {
  EnsureSweepQueue();
  while (bg_queue_pos_ < bg_queue_.size()) {
    const RecoveryWorkItem& cand = bg_queue_[bg_queue_pos_++];
    // Skip partitions an on-demand fault recovered (or DDL dropped) since
    // the queue was built; re-read the checkpoint page in case a crash-
    // within-restart rebuilt the queue from an older snapshot.
    auto d = v_->catalog.FindDescriptor(cand.pid);
    if (!d.ok() || d.value()->resident) continue;
    *item = RecoveryWorkItem{cand.pid, d.value()->checkpoint_page};
    return true;
  }
  return false;
}

Status Database::SweepRecoverPartition(const RecoveryWorkItem& item,
                                       uint64_t ready_ns,
                                       sim::DeviceTimeline* lane,
                                       uint64_t* done_ns,
                                       std::unique_ptr<Partition>* out,
                                       uint64_t* records_applied) {
  uint64_t io_done = 0, pages = 0;
  MMDB_RETURN_IF_ERROR(
      RebuildPartition(item, ready_ns, out, &io_done, records_applied, &pages));
  // The apply occupies the sweep lane once the reads are done.
  *done_ns = io_done;
  if (*records_applied > 0) {
    const double apply_ns_per_record =
        opts_.apply_instructions_per_record * main_cpu_.ns_per_instruction();
    const double n = static_cast<double>(*records_applied);
    *done_ns = lane->Occupy(io_done,
                            static_cast<uint64_t>(n * apply_ns_per_record));
    main_cpu_.AccountInstructions(n * opts_.apply_instructions_per_record);
  }
  return Status::OK();
}

Status Database::InstallSweepPartition(std::unique_ptr<Partition> part,
                                       uint64_t start_ns, uint64_t install_ns,
                                       uint64_t records_applied, uint32_t lane,
                                       bool* installed) {
  *installed = false;
  const PartitionId pid = part->id();
  auto d = v_->catalog.FindDescriptor(pid);
  if (!d.ok() || d.value()->resident) {
    // An on-demand fault recovered the partition (or DDL dropped it)
    // while the sweep copy was in flight. The resident copy saw every log
    // record; the sweep copy would go stale the moment new updates land,
    // so it is simply discarded.
    return Status::OK();
  }
  MMDB_RETURN_IF_ERROR(v_->pm.InstallRecovered(std::move(part)));
  NoteSpaceFreed();
  d.value()->resident = true;
  ++background_recoveries_;
  m_background_count_->Add(1);
  recovery_progress_.OnPartitionsRecovered(RecoverySource::kBackground, 1,
                                           records_applied, install_ns);
  m_background_ns_->Record(static_cast<double>(install_ns - start_ns));
  if (tracer_.enabled()) {
    tracer_.Span(obs::LaneTrack(lane), "recovery", "sweep " + pid.ToString(),
                 start_ns, install_ns - start_ns);
  }
  *installed = true;
  return Status::OK();
}

}  // namespace mmdb
