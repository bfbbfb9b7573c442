// Duplex re-silvering tests: rebuilding a failed log-disk member from its
// healthy mirror in background quanta, resuming idempotently across
// crashes, and falling back to the archive when the mirror cannot serve a
// page.

#include <gtest/gtest.h>

#include "core/database.h"
#include "fault/fault.h"
#include "test_util.h"

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

Status Fill(Database* db, const std::string& rel, int from, int to) {
  auto txn = db->Begin();
  if (!txn.ok()) return txn.status();
  for (int i = from; i < to; ++i) {
    auto a = db->Insert(txn.value(), rel, Tuple{static_cast<int64_t>(i),
                                                static_cast<int64_t>(i)});
    if (!a.ok()) return a.status();
  }
  return db->Commit(txn.value());
}

// A database whose relation "r" (400 committed rows) keeps a log chain
// that lags below the log window, so the archive still holds rolled pages
// that recovery can read. Relation "s" pushes the window past r's chain
// and is checkpointed by update count; r's own age checkpoint, queued
// behind it, waits on `*hold`, an open transaction on "r". Checkpoints
// run only when RunCheckpoints is called.
DatabaseOptions LaggingChainOptions() {
  DatabaseOptions o = SmallOptions();
  o.log_window_pages = 32;
  o.grace_pages = 0;
  o.n_update = 450;  // r's 400 records stay below it; s's first partition not
  o.auto_run_checkpoints = false;
  return o;
}

void SetUpLaggingChain(Database* db, Transaction** hold) {
  ASSERT_OK(db->CreateRelation("r", S()));
  ASSERT_OK(db->CreateRelation("s", S()));
  ASSERT_OK(Fill(db, "r", 0, 400));
  ASSERT_OK(Fill(db, "s", 0, 1500));
  ASSERT_OK_AND_ASSIGN(*hold, db->Begin());
  ASSERT_OK(db->Insert(*hold, "r", Tuple{int64_t{-1}, int64_t{-1}}).status());
  ASSERT_OK(db->RunCheckpoints());
  // r's chain starts below the rolled-up-to point: the archive keeps the
  // rolled pages from there on.
  ASSERT_LT(db->recovery_manager().log_tail(), db->archive().rolled_up_to());
}

// Every page of `a` must be present on `b` with identical bytes.
void ExpectMembersEqual(sim::Disk& a, sim::Disk& b) {
  std::vector<uint64_t> pages_a = a.StoredPageNumbers();
  ASSERT_EQ(pages_a, b.StoredPageNumbers());
  for (uint64_t page_no : pages_a) {
    sim::PageRef da, db_bytes;
    uint64_t done = 0;
    ASSERT_OK(a.ReadPage(page_no, 0, sim::SeekClass::kSequential, &da, &done));
    ASSERT_OK(
        b.ReadPage(page_no, 0, sim::SeekClass::kSequential, &db_bytes, &done));
    EXPECT_EQ(*da, *db_bytes) << "page " << page_no;
    EXPECT_TRUE(b.PageClean(page_no));
  }
}

TEST(ResilverTest, RebuildsFailedMirrorFromPrimary) {
  Database db(SmallOptions());
  ASSERT_OK(db.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db, "r", 0, 400));
  ASSERT_OK(db.CheckpointEverything());
  size_t primary_pages = db.log_disks().primary().StoredPageNumbers().size();
  ASSERT_GT(primary_pages, 0u);

  db.log_disks().mirror().FailMedia();
  ASSERT_TRUE(db.log_disks().member(1).StoredPageNumbers().empty());

  ASSERT_OK(db.StartLogDiskResilver(1));
  ASSERT_TRUE(db.resilverer().active());
  EXPECT_EQ(db.resilverer().pages_total(), primary_pages);
  uint64_t t0 = db.now_ns();
  ASSERT_OK(db.ResilverToCompletion());
  EXPECT_GT(db.now_ns(), t0);  // copying consumed virtual disk time
  EXPECT_FALSE(db.resilverer().active());

  ExpectMembersEqual(db.log_disks().primary(), db.log_disks().mirror());
  EXPECT_EQ(db.resilverer().pages_done(), primary_pages);
  EXPECT_EQ(db.metrics().counter("resilver.pages_done")->value(),
            primary_pages);
  EXPECT_EQ(db.metrics().gauge("resilver.pages_total")->value(),
            static_cast<double>(primary_pages));
  EXPECT_EQ(db.metrics().counter("resilver.runs")->value(), 1u);

  // The rebuilt pair still recovers the database.
  db.Crash();
  ASSERT_OK(db.Restart());
  auto txn = db.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK_AND_ASSIGN(auto rows, db.Scan(txn.value(), "r"));
  EXPECT_EQ(rows.size(), 400u);
  ASSERT_OK(db.Commit(txn.value()));
}

TEST(ResilverTest, RebuildsFailedPrimaryFromMirror) {
  Database db(SmallOptions());
  ASSERT_OK(db.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db, "r", 0, 400));
  db.log_disks().primary().FailMedia();
  ASSERT_OK(db.StartLogDiskResilver(0));
  ASSERT_OK(db.ResilverToCompletion());
  ExpectMembersEqual(db.log_disks().mirror(), db.log_disks().primary());
}

TEST(ResilverTest, RejectsBadMemberAndFailedSource) {
  Database db(SmallOptions());
  ASSERT_OK(db.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db, "r", 0, 100));
  EXPECT_TRUE(db.StartLogDiskResilver(2).IsInvalidArgument());
  // Source (primary) dead: nothing to re-silver member 1 from.
  db.log_disks().primary().FailMedia();
  EXPECT_TRUE(db.StartLogDiskResilver(1).IsInvalidArgument());
}

TEST(ResilverTest, CrashDuringResilverRestartsIdempotently) {
  Database db(SmallOptions());
  ASSERT_OK(db.CreateRelation("r", S()));
  // Enough log volume that the worklist spans several re-silver quanta.
  for (int b = 0; b < 5; ++b) {
    ASSERT_OK(Fill(&db, "r", b * 300, (b + 1) * 300));
  }
  ASSERT_OK(db.CheckpointEverything());
  size_t primary_pages = db.log_disks().primary().StoredPageNumbers().size();

  db.log_disks().mirror().FailMedia();
  ASSERT_OK(db.StartLogDiskResilver(1));

  // Crash after a few quanta: the copy is abandoned mid-worklist.
  bool done = false;
  ASSERT_OK(db.ResilverStep(&done));
  ASSERT_FALSE(done);
  size_t copied_before_crash = db.resilverer().pages_done();
  ASSERT_GT(copied_before_crash, 0u);
  ASSERT_LT(copied_before_crash, primary_pages);

  db.Crash();
  EXPECT_FALSE(db.resilverer().active());  // volatile progress lost
  ASSERT_OK(db.Restart());

  // Restart works off the partially-rebuilt pair (the healthy primary
  // masks every page the mirror is still missing)...
  {
    auto txn = db.Begin();
    ASSERT_OK(txn.status());
    ASSERT_OK_AND_ASSIGN(auto rows, db.Scan(txn.value(), "r"));
    EXPECT_EQ(rows.size(), 1500u);
    ASSERT_OK(db.Commit(txn.value()));
  }

  // ...and a fresh re-silver run resumes idempotently: pages that landed
  // before the crash are verified clean and skipped, not re-copied.
  ASSERT_OK(db.StartLogDiskResilver(1));
  ASSERT_OK(db.ResilverToCompletion());
  EXPECT_GE(db.resilverer().pages_skipped(), copied_before_crash);
  ExpectMembersEqual(db.log_disks().primary(), db.log_disks().mirror());
}

TEST(ResilverTest, InjectedCrashDuringResilverRecovers) {
  Database db(SmallOptions());
  ASSERT_OK(db.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db, "r", 0, 400));
  ASSERT_OK(db.CheckpointEverything());
  db.log_disks().mirror().FailMedia();

  // Crash on the 5th disk write after arming — mid-re-silver.
  fault::FaultPlan plan;
  plan.CrashAtVisit(fault::Site::kDiskWrite, 5);
  db.ArmFaultPlan(plan);

  ASSERT_OK(db.StartLogDiskResilver(1));
  Status st = db.ResilverToCompletion();
  ASSERT_TRUE(st.IsFault()) << st.ToString();
  ASSERT_TRUE(db.fault_injector().crash_pending());

  db.Crash();
  ASSERT_OK(db.Restart());
  ASSERT_OK(db.StartLogDiskResilver(1));
  ASSERT_OK(db.ResilverToCompletion());
  ExpectMembersEqual(db.log_disks().primary(), db.log_disks().mirror());
}

TEST(ResilverTest, SkipsPagesReleasedWhileRunning) {
  // Checkpoints keep running while a re-silver copies in quanta: pages on
  // its worklist can fall below the log tail and be released from the
  // source and the archive before the cursor reaches them. Nothing needs
  // them any more, so the run skips them and still ends with equal
  // members.
  DatabaseOptions o = SmallOptions();
  o.log_window_pages = 8;
  o.grace_pages = 2;
  o.auto_run_checkpoints = false;  // the log stays whole until Start
  Database db(o);
  ASSERT_OK(db.CreateRelation("r", S()));
  ASSERT_OK(Fill(&db, "r", 0, 1500));
  db.log_disks().mirror().FailMedia();
  ASSERT_OK(db.StartLogDiskResilver(1));
  bool done = false;
  ASSERT_OK(db.ResilverStep(&done));
  ASSERT_FALSE(done);
  const uint64_t released = db.log_writer().released_below();
  ASSERT_OK(db.CheckpointEverything());
  ASSERT_GT(db.log_writer().released_below(), released)
      << "test setup: the checkpoints must release pages on the worklist";
  ASSERT_OK(db.ResilverToCompletion());
  ExpectMembersEqual(db.log_disks().primary(), db.log_disks().mirror());

  db.Crash();
  ASSERT_OK(db.Restart());
  auto txn = db.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK_AND_ASSIGN(auto rows, db.Scan(txn.value(), "r"));
  EXPECT_EQ(rows.size(), 1500u);
  ASSERT_OK(db.Commit(txn.value()));
}

TEST(ResilverTest, FallsBackToArchiveWhenMirrorCannotServePage) {
  // The window rolls old log pages into the archive while r's chain
  // still needs some of them.
  Database db(LaggingChainOptions());
  Transaction* hold = nullptr;
  ASSERT_NO_FATAL_FAILURE(SetUpLaggingChain(&db, &hold));
  ASSERT_GT(db.archive().archived_log_pages(), 0u)
      << "test setup: the window must have rolled pages into the archive";
  ASSERT_FALSE(db.archive().log_page_archive().empty());
  uint64_t archived_page = db.archive().log_page_archive().begin()->first;

  db.log_disks().mirror().FailMedia();

  // The source (primary) reports persistent read errors for the archived
  // page: the re-silverer must restore that page from the archive copy.
  fault::FaultPlan plan;
  fault::FaultSpec s;
  s.site = fault::Site::kDiskRead;
  s.kind = fault::FaultKind::kTransientReadError;
  s.device = "log-a";
  s.page_no = archived_page;
  s.nth_visit = 1;
  s.count = ~uint32_t{0};  // never clears
  plan.specs.push_back(s);
  db.ArmFaultPlan(plan);

  ASSERT_OK(db.StartLogDiskResilver(1));
  ASSERT_OK(db.ResilverToCompletion());
  EXPECT_GE(db.fault_injector().injected(fault::Site::kDiskRead),
            sim::kReadRetryAttempts);
  db.DisarmFaults();
  ExpectMembersEqual(db.log_disks().primary(), db.log_disks().mirror());
}

TEST(ResilverTest, RestoresCorruptSourcePageFromArchiveCopy) {
  // The window rolls old log pages into the archive while r's chain
  // still needs some of them.
  Database db(LaggingChainOptions());
  Transaction* hold = nullptr;
  ASSERT_NO_FATAL_FAILURE(SetUpLaggingChain(&db, &hold));
  ASSERT_GT(db.archive().archived_log_pages(), 0u)
      << "test setup: the window must have rolled pages into the archive";
  ASSERT_FALSE(db.archive().log_page_archive().empty());
  const auto& [archived_page, archived_ref] =
      *db.archive().log_page_archive().begin();
  const std::vector<uint8_t> archived_bytes = *archived_ref;

  // Latent corruption on the healthy primary's copy of an archived page:
  // its device CRC check fails, so the re-silverer restores that page from
  // the archive. The flipped bits stay on the primary's private copy.
  db.log_disks().mirror().FailMedia();
  db.log_disks().mirror().RepairMedia();
  db.ArmFaultPlan(fault::FaultPlan().LatentCorruption("log-a", archived_page));
  ASSERT_OK(db.StartLogDiskResilver(1));
  ASSERT_OK(db.ResilverToCompletion());
  db.DisarmFaults();

  EXPECT_FALSE(db.log_disks().primary().PageClean(archived_page));
  EXPECT_TRUE(db.log_disks().mirror().PageClean(archived_page));
  EXPECT_EQ(*db.archive().log_page_archive().at(archived_page),
            archived_bytes);
  sim::PageRef rebuilt;
  uint64_t done = 0;
  ASSERT_OK(db.log_disks().mirror().ReadPage(
      archived_page, 0, sim::SeekClass::kSequential, &rebuilt, &done));
  EXPECT_EQ(*rebuilt, archived_bytes);
}

TEST(ResilverTest, MirrorAndArchiveServeAfterPrimaryMediaFailure) {
  // The window rolls old log pages into the archive while r's chain
  // still needs some of them.
  Database db(LaggingChainOptions());
  Transaction* hold = nullptr;
  ASSERT_NO_FATAL_FAILURE(SetUpLaggingChain(&db, &hold));
  ASSERT_GT(db.archive().archived_log_pages(), 0u)
      << "test setup: the window must have rolled pages into the archive";

  db.log_disks().primary().FailMedia();
  ASSERT_FALSE(db.archive().log_page_archive().empty());
  for (const auto& [lsn, ref] : db.archive().log_page_archive()) {
    sim::PageRef bytes;
    uint64_t done = 0;
    ASSERT_OK(db.log_disks().mirror().ReadPage(
        lsn, 0, sim::SeekClass::kSequential, &bytes, &done));
    EXPECT_EQ(*bytes, *ref) << "page " << lsn;
  }
  // Recovery reads the log from the surviving mirror.
  db.Crash();
  ASSERT_OK(db.Restart());
  auto txn = db.Begin();
  ASSERT_OK(txn.status());
  ASSERT_OK_AND_ASSIGN(auto rows, db.Scan(txn.value(), "r"));
  EXPECT_EQ(rows.size(), 400u);
  ASSERT_OK(db.Commit(txn.value()));
  db.log_disks().primary().RepairMedia();
  ASSERT_OK(db.StartLogDiskResilver(0));
  ASSERT_OK(db.ResilverToCompletion());
  ExpectMembersEqual(db.log_disks().mirror(), db.log_disks().primary());
}

}  // namespace
}  // namespace mmdb
