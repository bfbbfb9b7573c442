// Device retention: the simulated disks keep only what recovery can still
// read. The checkpoint disk holds each partition's live image and nothing
// superseded; every log stream holds its pages from the log tail on
// (stream 0 also those not yet rolled onto the archive); the archive holds
// rolled pages from the tail up to the rolled-up-to point. A checkpoint
// that rolls back keeps the old image, and restart starts from it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/database.h"
#include "fault/fault.h"
#include "test_util.h"
#include "txn/executor.h"

namespace mmdb {
namespace {

Schema S() {
  return Schema({{"id", ColumnType::kInt64}, {"v", ColumnType::kInt64}});
}

DatabaseOptions SmallOptions() {
  DatabaseOptions o;
  o.partition_size_bytes = 16 * 1024;
  o.log_page_bytes = 2 * 1024;
  o.n_update = 100;
  return o;
}

Status Fill(Database* db, const std::string& rel, int64_t from, int64_t to,
            std::map<int64_t, EntityAddr>* addrs) {
  auto txn = db->Begin();
  if (!txn.ok()) return txn.status();
  for (int64_t i = from; i < to; ++i) {
    auto a = db->Insert(txn.value(), rel, Tuple{i, i});
    if (!a.ok()) return a.status();
    (*addrs)[i] = a.value();
  }
  return db->Commit(txn.value());
}

// In one transaction, sets v = id + delta on every `stride`-th row from
// `first`, `passes` times over.
Status UpdateRows(Database* db, const std::string& rel,
                  const std::map<int64_t, EntityAddr>& addrs, int64_t first,
                  int64_t stride, int64_t delta, int passes = 1) {
  auto txn = db->Begin();
  if (!txn.ok()) return txn.status();
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto& [id, addr] : addrs) {
      if (id < first || (id - first) % stride != 0) continue;
      MMDB_RETURN_IF_ERROR(
          db->Update(txn.value(), rel, addr, Tuple{id, id + delta}));
    }
  }
  return db->Commit(txn.value());
}

std::map<int64_t, int64_t> Rows(Database* db, const std::string& rel) {
  std::map<int64_t, int64_t> out;
  auto txn = db->Begin();
  EXPECT_OK(txn.status());
  if (!txn.ok()) return out;
  auto rows = db->Scan(txn.value(), rel);
  EXPECT_OK(rows.status());
  if (rows.ok()) {
    for (const auto& [addr, tup] : rows.value()) {
      out[std::get<int64_t>(tup[0])] = std::get<int64_t>(tup[1]);
    }
  }
  EXPECT_OK(db->Commit(txn.value()));
  return out;
}

// The checkpoint disk stores exactly the pages of the slots the disk map
// owns: one live image per checkpointed partition.
void ExpectOnlyLiveImages(Database& db) {
  const DiskAllocationMap& map = db.disk_allocation_map();
  std::vector<uint64_t> live;
  for (uint64_t slot = 0; slot < map.num_slots(); ++slot) {
    if (map.owner(slot) == DiskAllocationMap::kFree) continue;
    for (uint32_t i = 0; i < map.pages_per_slot(); ++i) {
      live.push_back(map.SlotFirstPage(slot) + i);
    }
  }
  EXPECT_FALSE(live.empty());
  EXPECT_EQ(db.checkpoint_disk().StoredPageNumbers(), live);
}

// Every stream's duplex members hold exactly the pages from the stream's
// cut up to its next LSN: the log tail, or on stream 0 the lower of the
// tail and the archive's rolled-up-to point. The archive holds exactly
// the rolled pages from the tail on.
void ExpectLogRetention(Database& db) {
  for (uint32_t s = 0; s < db.log_streams(); ++s) {
    SCOPED_TRACE("stream " + std::to_string(s));
    uint64_t tail = db.recovery_manager_at(s).log_tail();
    uint64_t cut = tail;
    if (s == 0) cut = std::min(tail, db.archive().rolled_up_to());
    uint64_t next = db.log_writer_at(s).next_lsn();
    ASSERT_LE(cut, next);
    std::vector<uint64_t> expected;
    for (uint64_t lsn = cut; lsn < next; ++lsn) expected.push_back(lsn);
    for (int m = 0; m < 2; ++m) {
      EXPECT_EQ(db.log_disks_at(s).member(m).StoredPageNumbers(), expected)
          << "member " << m;
    }
  }
  uint64_t tail = db.recovery_manager().log_tail();
  uint64_t rolled = db.archive().rolled_up_to();
  std::vector<uint64_t> archived;
  for (const auto& [lsn, page] : db.archive().log_page_archive()) {
    archived.push_back(lsn);
  }
  std::vector<uint64_t> expected;
  for (uint64_t lsn = tail; lsn < rolled; ++lsn) expected.push_back(lsn);
  EXPECT_EQ(archived, expected);
}

TEST(RetentionTest, CheckpointDiskHoldsExactlyTheLiveImages) {
  Database db(SmallOptions());
  ASSERT_OK(db.CreateRelation("r", S()));
  std::map<int64_t, EntityAddr> addrs;
  ASSERT_OK(Fill(&db, "r", 0, 2000, &addrs));
  ASSERT_OK(db.CheckpointEverything());
  ExpectOnlyLiveImages(db);
  uint64_t images = db.checkpoint_disk().StoredPageNumbers().size();
  for (int round = 1; round <= 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ASSERT_OK(UpdateRows(&db, "r", addrs, round, 7, round * 1000));
    ASSERT_OK(db.CheckpointEverything());
    ExpectOnlyLiveImages(db);
    // Every round writes a new image per partition; the disk keeps one.
    EXPECT_EQ(db.checkpoint_disk().StoredPageNumbers().size(), images);
  }
  EXPECT_GT(db.checkpoint_disk().pages_written(), 4 * images);

  std::map<int64_t, int64_t> before = Rows(&db, "r");
  db.Crash();
  ASSERT_OK(db.Restart());
  EXPECT_EQ(Rows(&db, "r"), before);
  ExpectOnlyLiveImages(db);
}

TEST(RetentionTest, DroppedObjectsReleaseTheirImages) {
  Database db(SmallOptions());
  ASSERT_OK(db.CreateRelation("r", S()));
  ASSERT_OK(db.CreateRelation("s", S()));
  ASSERT_OK(db.CreateIndex("s_id", "s", "id", IndexType::kTTree));
  ASSERT_OK(db.CreateIndex("r_id", "r", "id", IndexType::kLinearHash));
  std::map<int64_t, EntityAddr> r_addrs, s_addrs;
  ASSERT_OK(Fill(&db, "r", 0, 1000, &r_addrs));
  ASSERT_OK(Fill(&db, "s", 0, 1000, &s_addrs));
  ASSERT_OK(db.CheckpointEverything());
  ExpectOnlyLiveImages(db);
  const size_t all_images = db.checkpoint_disk().StoredPageNumbers().size();

  // Dropping an index, then a relation (and with it its index), leaves
  // the checkpoint disk holding exactly the live images.
  ASSERT_OK(db.DropIndex("s_id"));
  ExpectOnlyLiveImages(db);
  ASSERT_OK(db.DropRelation("r"));
  ExpectOnlyLiveImages(db);
  EXPECT_LT(db.checkpoint_disk().StoredPageNumbers().size(), all_images);

  std::map<int64_t, int64_t> before = Rows(&db, "s");
  db.Crash();
  ASSERT_OK(db.Restart());
  EXPECT_EQ(Rows(&db, "s"), before);
  ExpectOnlyLiveImages(db);
}

// The disk-force and group-commit baselines write WAL pages only for their
// device time. Nothing reads them, so the log disks keep none: the stored
// log pages stay those from the tail, fewer than the forces however many
// commits forced.
TEST(RetentionTest, ForcedCommitsLeaveNoWalPagesBehind) {
  for (CommitMode mode : {CommitMode::kDiskForce, CommitMode::kGroupCommit}) {
    SCOPED_TRACE("commit mode " + std::to_string(static_cast<int>(mode)));
    DatabaseOptions o = SmallOptions();
    o.commit_mode = mode;
    o.group_commit_txns = 4;
    Database db(o);
    ASSERT_OK(db.CreateRelation("r", S()));
    std::map<int64_t, EntityAddr> addrs;
    ASSERT_OK(Fill(&db, "r", 0, 50, &addrs));
    for (int commits : {20, 200}) {
      SCOPED_TRACE(std::to_string(commits) + " commits");
      for (int i = 0; i < commits; ++i) {
        ASSERT_OK(UpdateRows(&db, "r", addrs, i % 50, 50, i));
      }
      ASSERT_OK(db.CheckpointEverything());
      ExpectLogRetention(db);
      EXPECT_LT(db.log_disks().member(0).StoredPageNumbers().size(),
                db.GetStats().log_forces);
    }
  }
}

TEST(RetentionTest, RolledBackCheckpointKeepsOldImageAndRestartUsesIt) {
  DatabaseOptions o = SmallOptions();
  o.n_update = 1ull << 30;  // checkpoints only where the test asks
  Database db(o);
  ASSERT_OK(db.CreateRelation("r", S()));
  std::map<int64_t, EntityAddr> addrs;
  ASSERT_OK(Fill(&db, "r", 0, 300, &addrs));
  ASSERT_OK(db.CheckpointEverything());
  std::map<uint64_t, uint64_t> old_pages;  // partition -> image page
  for (const PartitionDescriptor& d :
       db.catalog().GetRelation("r").value()->partitions) {
    ASSERT_TRUE(d.has_checkpoint());
    old_pages[d.id.Pack()] = d.checkpoint_page;
  }
  ASSERT_OK(UpdateRows(&db, "r", addrs, 0, 1, 5));
  std::map<int64_t, int64_t> committed = Rows(&db, "r");

  // The first image write of the forced checkpoint crashes: the install
  // rolls back before its commit.
  db.ArmFaultPlan(
      fault::FaultPlan().CrashAtVisit(fault::Site::kCheckpointTrackWrite, 1));
  Status st = db.ForceCheckpointRelation("r");
  ASSERT_TRUE(st.IsFault()) << st.ToString();
  const uint32_t pages_per_slot = db.disk_allocation_map().pages_per_slot();
  for (const auto& [pid, page] : old_pages) {
    for (uint32_t i = 0; i < pages_per_slot; ++i) {
      EXPECT_TRUE(db.checkpoint_disk().PageClean(page + i))
          << "old image page " << page + i << " of partition " << pid;
    }
  }

  db.Crash();
  db.DisarmFaults();
  ASSERT_OK(db.Restart());
  for (const PartitionDescriptor& d :
       db.catalog().GetRelation("r").value()->partitions) {
    EXPECT_EQ(d.checkpoint_page, old_pages.at(d.id.Pack()));
  }
  EXPECT_EQ(Rows(&db, "r"), committed);

  // The next checkpoint supersedes the old image and releases it.
  ASSERT_OK(db.CheckpointEverything());
  ExpectOnlyLiveImages(db);
  EXPECT_EQ(Rows(&db, "r"), committed);
}

// A small log window, so age checkpoints fire, the window rolls pages
// onto the archive and the log tail advances.
DatabaseOptions SmallWindowOptions() {
  DatabaseOptions o = SmallOptions();
  o.log_window_pages = 24;
  o.grace_pages = 4;
  o.n_update = 400;
  return o;
}

TEST(RetentionTest, SingleStreamLogAndArchiveKeepOnlyPagesFromTheTail) {
  Database db(SmallWindowOptions());
  ASSERT_OK(db.CreateRelation("r", S()));
  ASSERT_OK(db.CreateRelation("s", S()));
  std::map<int64_t, EntityAddr> r_addrs, s_addrs;
  ASSERT_OK(Fill(&db, "r", 0, 300, &r_addrs));
  ASSERT_OK(Fill(&db, "s", 0, 300, &s_addrs));
  for (int round = 1; round <= 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ASSERT_OK(UpdateRows(&db, "r", r_addrs, round, 3, round));
    ASSERT_OK(UpdateRows(&db, "s", s_addrs, round, 2, round));
    ExpectLogRetention(db);
  }
  // A lagging chain: r starts a short chain, then an open transaction on
  // "r" holds r's checkpoint back. One long transaction on "s" raises s's
  // update-count request before r's age request and moves the window past
  // r's first page; s's checkpoint then rolls pages of r's chain onto the
  // archive, which keeps them.
  ASSERT_OK(db.CheckpointEverything());
  ExpectLogRetention(db);
  ASSERT_OK(UpdateRows(&db, "r", r_addrs, 0, 3, 7));
  ASSERT_OK_AND_ASSIGN(Transaction * hold, db.Begin());
  ASSERT_OK(db.Insert(hold, "r", Tuple{int64_t{-1}, int64_t{-1}}).status());
  ASSERT_OK(UpdateRows(&db, "s", s_addrs, 0, 1, 100, /*passes=*/5));
  ExpectLogRetention(db);
  EXPECT_FALSE(db.archive().log_page_archive().empty());
  ASSERT_OK(db.Abort(hold));
  ASSERT_OK(UpdateRows(&db, "s", s_addrs, 0, 1, 200));
  ExpectLogRetention(db);

  EXPECT_GT(db.archive().archived_log_pages(), 0u);
  EXPECT_GT(db.log_writer().released_below(), 0u);
  EXPECT_GT(db.GetStats().checkpoints_age, 0u);

  std::map<int64_t, int64_t> r_before = Rows(&db, "r");
  std::map<int64_t, int64_t> s_before = Rows(&db, "s");
  db.Crash();
  ASSERT_OK(db.Restart());
  EXPECT_EQ(Rows(&db, "r"), r_before);
  EXPECT_EQ(Rows(&db, "s"), s_before);
  ExpectLogRetention(db);
}

TEST(RetentionTest, EveryLogStreamKeepsOnlyPagesFromItsTail) {
  DatabaseOptions o = SmallWindowOptions();
  o.log_window_pages = 8;
  o.grace_pages = 2;
  o.txn_workers = 4;
  o.log_streams = 4;
  Database db(o);
  ASSERT_OK(db.CreateRelation("r", S()));
  std::map<int64_t, EntityAddr> addrs;
  ASSERT_OK(Fill(&db, "r", 0, 400, &addrs));

  // Executor-bound user transactions spread across the four streams.
  for (int wave = 0; wave < 8; ++wave) {
    SCOPED_TRACE("wave " + std::to_string(wave));
    ConcurrentExecutor ex(&db);
    for (int k = 0; k < 50; ++k) {
      TxnScript ts;
      ts.label = "w" + std::to_string(wave) + "." + std::to_string(k);
      for (int j = 0; j < 8; ++j) {
        int64_t id = (k * 8 + j + wave * 17) % 400;
        EntityAddr addr = addrs.at(id);
        int64_t v = id + wave * 1000 + k;
        ts.ops.push_back([addr, id, v](Database& d, Transaction* t) {
          return d.Update(t, "r", addr, Tuple{id, v});
        });
      }
      ex.Submit(std::move(ts));
    }
    ASSERT_OK(ex.Run());
    ExpectLogRetention(db);
  }
  for (uint32_t s = 1; s < db.log_streams(); ++s) {
    EXPECT_GT(db.log_writer_at(s).next_lsn(), 0u) << "stream " << s;
    EXPECT_GT(db.log_writer_at(s).released_below(), 0u) << "stream " << s;
  }

  std::map<int64_t, int64_t> before = Rows(&db, "r");
  db.Crash();
  ASSERT_OK(db.Restart());
  EXPECT_EQ(Rows(&db, "r"), before);
  ExpectLogRetention(db);
}

}  // namespace
}  // namespace mmdb
