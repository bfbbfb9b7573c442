// Parallel (multi-lane, pipelined) recovery: determinism across lane
// counts, on-demand recovery racing the background sweep, DDL
// invalidating the sweep queue, crash-again-during-recovery, and the
// pinned virtual times of every partition-rebuild timing policy.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "test_util.h"
#include "txn/executor.h"
#include "util/random.h"

namespace mmdb {
namespace {

Schema AccountSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"balance", ColumnType::kInt64},
                 {"owner", ColumnType::kString}});
}

Tuple Account(int64_t id, int64_t balance, const std::string& owner) {
  return Tuple{id, balance, owner};
}

DatabaseOptions LaneOptions(uint32_t lanes, bool pipelined = true) {
  DatabaseOptions o;
  o.partition_size_bytes = 16 * 1024;
  o.log_page_bytes = 2 * 1024;
  o.n_update = 100;
  o.recovery_parallelism = lanes;
  o.pipelined_recovery = pipelined;
  return o;
}

constexpr int kRelations = 4;
constexpr int kRowsPerRelation = 150;

std::string Rel(int r) { return "rel" + std::to_string(r); }

/// Every row of each relation, with its address (addresses survive a
/// crash, so rows taken before one can be updated after it).
using RowMap = std::vector<std::vector<std::pair<EntityAddr, Tuple>>>;

/// Deterministic workload: populate several relations, checkpoint, then
/// apply post-checkpoint updates (so recovery must replay log), crash.
/// `rows`, if given, receives the rows as checkpointed.
void BuildAndCrash(Database* db, RowMap* rows = nullptr) {
  for (int r = 0; r < kRelations; ++r) {
    ASSERT_OK(db->CreateRelation(Rel(r), AccountSchema()));
    auto t = db->Begin();
    ASSERT_OK(t.status());
    for (int i = 0; i < kRowsPerRelation; ++i) {
      ASSERT_OK(db->Insert(t.value(), Rel(r), Account(i, i * 10, "u"))
                    .status());
    }
    ASSERT_OK(db->Commit(t.value()));
  }
  ASSERT_OK(db->CheckpointEverything());
  Random rng(7);
  for (int r = 0; r < kRelations; ++r) {
    auto t = db->Begin();
    ASSERT_OK(t.status());
    auto rows_r = db->Scan(t.value(), Rel(r));
    ASSERT_OK(rows_r.status());
    if (rows != nullptr) rows->push_back(rows_r.value());
    for (int k = 0; k < 25; ++k) {
      auto& [a, tuple] = rows_r.value()[rng.Uniform(rows_r.value().size())];
      Tuple t2 = tuple;
      t2[1] = std::get<int64_t>(t2[1]) + 3;
      ASSERT_OK(db->Update(t.value(), Rel(r), a, t2));
    }
    ASSERT_OK(db->Commit(t.value()));
  }
  db->Crash();
}

std::map<int64_t, Tuple> Snapshot(Database* db, const std::string& rel) {
  auto txn = db->Begin();
  EXPECT_TRUE(txn.ok());
  auto rows = db->Scan(txn.value(), rel);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::map<int64_t, Tuple> out;
  for (auto& [addr, tuple] : rows.value()) {
    out[std::get<int64_t>(tuple[0])] = tuple;
  }
  EXPECT_TRUE(db->Commit(txn.value()).ok());
  return out;
}

/// Raw bytes of every resident partition, keyed by partition id.
std::map<PartitionId, std::vector<uint8_t>> ImageMap(Database* db) {
  std::map<PartitionId, std::vector<uint8_t>> out;
  for (Partition* p : db->partitions().AllPartitions()) {
    out[p->id()] = p->image();
  }
  return out;
}

void RunSweep(Database* db) {
  bool done = false;
  int steps = 0;
  while (!done) {
    ASSERT_OK(db->BackgroundRecoveryStep(&done));
    ASSERT_LT(++steps, 1000);
  }
}

TEST(ParallelRecoveryTest, LaneCountsProduceByteIdenticalState) {
  // The same crash recovered with 1 lane and with 4 lanes must yield
  // byte-identical partitions — parallelism reorders device traffic, not
  // record application.
  std::map<PartitionId, std::vector<uint8_t>> images[2];
  std::map<int64_t, Tuple> snaps[2];
  const uint32_t lane_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    DatabaseOptions o = LaneOptions(lane_counts[i]);
    o.restart_policy = RestartPolicy::kFullReload;
    Database db(o);
    BuildAndCrash(&db);
    ASSERT_OK(db.Restart());
    ASSERT_TRUE(db.FullyResident());
    images[i] = ImageMap(&db);
    snaps[i] = Snapshot(&db, Rel(0));
  }
  EXPECT_EQ(snaps[0], snaps[1]);
  ASSERT_EQ(images[0].size(), images[1].size());
  EXPECT_EQ(images[0], images[1]);
}

TEST(ParallelRecoveryTest, SameLaneCountIsFullyDeterministic) {
  // Same seed + same lane count: identical virtual end timestamps on
  // repeated runs, down to the nanosecond.
  double total_ms[2] = {0, 0}, end_ms[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    DatabaseOptions o = LaneOptions(4);
    o.restart_policy = RestartPolicy::kFullReload;
    Database db(o);
    BuildAndCrash(&db);
    ASSERT_OK(db.Restart());
    total_ms[run] = db.last_restart().total_ms;
    end_ms[run] = db.now_ms();
  }
  EXPECT_EQ(total_ms[0], total_ms[1]);
  EXPECT_EQ(end_ms[0], end_ms[1]);
}

TEST(ParallelRecoveryTest, MoreLanesRecoverFaster) {
  // With post-checkpoint log to apply, four lanes amortize the exposed
  // per-partition apply time; full reload must get strictly faster.
  double t_lanes[2] = {0, 0};
  const uint32_t lane_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    DatabaseOptions o = LaneOptions(lane_counts[i]);
    o.restart_policy = RestartPolicy::kFullReload;
    Database db(o);
    BuildAndCrash(&db);
    ASSERT_OK(db.Restart());
    t_lanes[i] = db.last_restart().total_ms;
  }
  EXPECT_LT(t_lanes[1], t_lanes[0]);
}

TEST(ParallelRecoveryTest, SerialAblationMatchesPipelinedState) {
  // lanes=1 without pipelining routes through the legacy serial restart
  // path; the recovered state must still match the pipelined result.
  std::map<PartitionId, std::vector<uint8_t>> images[2];
  for (int i = 0; i < 2; ++i) {
    DatabaseOptions o = LaneOptions(1, /*pipelined=*/i == 1);
    o.restart_policy = RestartPolicy::kFullReload;
    Database db(o);
    BuildAndCrash(&db);
    ASSERT_OK(db.Restart());
    images[i] = ImageMap(&db);
  }
  EXPECT_EQ(images[0], images[1]);
}

TEST(ParallelRecoveryTest, OnDemandRecoveryRacesBackgroundSweep) {
  DatabaseOptions o = LaneOptions(4);
  Database db(o);  // kOnDemand
  BuildAndCrash(&db);
  ASSERT_OK(db.Restart());
  EXPECT_FALSE(db.FullyResident());

  // One background batch, then a transaction demands a relation the sweep
  // may or may not have reached — on-demand and the sweep must agree.
  bool done = false;
  ASSERT_OK(db.BackgroundRecoveryStep(&done));
  auto hot = Snapshot(&db, Rel(kRelations - 1));
  EXPECT_TRUE(db.IsRelationResident(Rel(kRelations - 1)));
  RunSweep(&db);
  EXPECT_TRUE(db.FullyResident());
  for (int r = 0; r < kRelations; ++r) {
    EXPECT_EQ(Snapshot(&db, Rel(r)).size(), size_t(kRowsPerRelation));
  }
  EXPECT_EQ(Snapshot(&db, Rel(kRelations - 1)), hot);
}

TEST(ParallelRecoveryTest, DdlMidSweepInvalidatesCursor) {
  DatabaseOptions o = LaneOptions(2);
  Database db(o);
  BuildAndCrash(&db);
  ASSERT_OK(db.Restart());

  bool done = false;
  ASSERT_OK(db.BackgroundRecoveryStep(&done));
  ASSERT_FALSE(done);
  // DDL between sweep steps invalidates the sweep queue, so the sweep
  // must rebuild it from the new catalog — and still terminate with
  // everything resident.
  ASSERT_OK(db.CreateRelation("fresh", AccountSchema()));
  auto t = db.Begin();
  ASSERT_OK(t.status());
  ASSERT_OK(db.Insert(t.value(), "fresh", Account(1, 1, "n")).status());
  ASSERT_OK(db.Commit(t.value()));

  RunSweep(&db);
  EXPECT_TRUE(db.FullyResident());
  EXPECT_EQ(Snapshot(&db, "fresh").size(), 1u);
  for (int r = 0; r < kRelations; ++r) {
    EXPECT_EQ(Snapshot(&db, Rel(r)).size(), size_t(kRowsPerRelation));
  }
}

TEST(ParallelRecoveryTest, CrashDuringParallelRestartRecoversAgain) {
  DatabaseOptions o = LaneOptions(4);
  Database db(o);
  BuildAndCrash(&db);
  ASSERT_OK(db.Restart());

  // Partially through the parallel background sweep, crash again.
  bool done = false;
  ASSERT_OK(db.BackgroundRecoveryStep(&done));
  ASSERT_OK(db.BackgroundRecoveryStep(&done));
  db.Crash();
  ASSERT_OK(db.Restart());
  RunSweep(&db);
  EXPECT_TRUE(db.FullyResident());
  for (int r = 0; r < kRelations; ++r) {
    auto snap = Snapshot(&db, Rel(r));
    ASSERT_EQ(snap.size(), size_t(kRowsPerRelation));
    // Spot-check a recovered post-checkpoint update survived both
    // crashes: balances are id*10 plus multiples of 3.
    for (auto& [id, tuple] : snap) {
      int64_t delta = std::get<int64_t>(tuple[1]) - id * 10;
      EXPECT_GE(delta, 0);
      EXPECT_EQ(delta % 3, 0);
    }
  }
}

TEST(ParallelRecoveryTest, RecoverRelationUsesLanes) {
  DatabaseOptions o = LaneOptions(4);
  Database db(o);
  ASSERT_OK(db.CreateRelation("acct", AccountSchema()));
  ASSERT_OK(db.CreateIndex("by_id", "acct", "id", IndexType::kTTree));
  auto t = db.Begin();
  ASSERT_OK(t.status());
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK(db.Insert(t.value(), "acct", Account(i, i, "u")).status());
  }
  ASSERT_OK(db.Commit(t.value()));
  auto before = Snapshot(&db, "acct");

  db.Crash();
  ASSERT_OK(db.Restart());
  ASSERT_OK(db.RecoverRelation("acct"));
  EXPECT_TRUE(db.IsRelationResident("acct"));
  EXPECT_EQ(Snapshot(&db, "acct"), before);
  auto t2 = db.Begin();
  ASSERT_OK(t2.status());
  ASSERT_OK_AND_ASSIGN(auto hits, db.IndexLookup(t2.value(), "by_id", 200));
  EXPECT_EQ(hits.size(), 1u);
  ASSERT_OK(db.Commit(t2.value()));
}

// --- golden virtual times ----------------------------------------------------
//
// Every caller of the partition rebuild keeps its own timing policy: the
// serial chain charges the apply to the main CPU after the reads, the
// multi-stream restart gates it on the slowest stream, the interleaved
// sweep charges a recovery lane, and an on-demand fault runs the lane
// scheduler. These values pin each policy's virtual time on a fixed
// workload; any drift in how a rebuild charges devices or CPUs moves them.

/// Balance bumps over the first `relations` relations, `count` scripts of
/// three updates. Run by the executor they spread over its workers, so
/// with log_streams > 1 every stream carries part of each relation's log.
std::vector<TxnScript> BumpScripts(const RowMap& rows, int count,
                                   int relations = kRelations) {
  std::vector<TxnScript> scripts;
  for (int s = 0; s < count; ++s) {
    TxnScript ts;
    ts.label = "bump-" + std::to_string(s);
    for (int j = 0; j < 3; ++j) {
      const int r = (s + j) % relations;
      const auto& row = rows[r][(s * 7 + j * 13) % rows[r].size()];
      const EntityAddr addr = row.first;
      Tuple bumped = row.second;
      bumped[1] = std::get<int64_t>(bumped[1]) + 3;
      ts.ops.push_back(
          [r, addr, bumped](Database& d, Transaction* t) -> Status {
            return d.Update(t, Rel(r), addr, bumped);
          });
    }
    scripts.push_back(std::move(ts));
  }
  return scripts;
}

uint64_t RestartNs(const Database& db) {
  return static_cast<uint64_t>(std::llround(db.last_restart().total_ms * 1e6));
}

TEST(ParallelRecoveryTest, GoldenSerialAblationRestart) {
  DatabaseOptions o = LaneOptions(1, /*pipelined=*/false);
  o.restart_policy = RestartPolicy::kFullReload;
  Database db(o);
  BuildAndCrash(&db);
  ASSERT_OK(db.Restart());
  EXPECT_EQ(RestartNs(db), 65000000u);
  EXPECT_EQ(db.last_restart().records_applied, 109u);
}

TEST(ParallelRecoveryTest, GoldenMultiStreamRestart) {
  DatabaseOptions o = LaneOptions(1);
  o.restart_policy = RestartPolicy::kFullReload;
  o.log_streams = 4;
  o.txn_workers = 4;
  Database db(o);
  RowMap rows;
  BuildAndCrash(&db, &rows);
  ASSERT_OK(db.Restart());
  ConcurrentExecutor ex(&db);
  for (TxnScript& s : BumpScripts(rows, 16)) ex.Submit(std::move(s));
  ASSERT_OK(ex.Run());
  db.Crash();
  ASSERT_OK(db.Restart());
  EXPECT_EQ(RestartNs(db), 54900000u);
  EXPECT_EQ(db.last_restart().records_applied, 157u);
}

TEST(ParallelRecoveryTest, GoldenInterleavedSweep) {
  DatabaseOptions o = LaneOptions(2);
  o.txn_workers = 2;
  Database db(o);  // kOnDemand
  RowMap rows;
  BuildAndCrash(&db, &rows);
  ASSERT_OK(db.Restart());
  ConcurrentExecutor::Options eo;
  eo.background_sweep = true;
  ConcurrentExecutor ex(&db, eo);
  // Only Rel(0) faults in on demand; the sweep restores the rest.
  for (TxnScript& s : BumpScripts(rows, 8, /*relations=*/1)) {
    ex.Submit(std::move(s));
  }
  ASSERT_OK(ex.Run());
  EXPECT_TRUE(db.FullyResident());
  EXPECT_EQ(ex.sweep_recovered(), 3u);
  EXPECT_EQ(ex.last_sweep_install_ns(), 133593338u);
}

TEST(ParallelRecoveryTest, GoldenOnDemandFault) {
  Database db(LaneOptions(1));  // kOnDemand
  RowMap rows;
  BuildAndCrash(&db, &rows);
  ASSERT_OK(db.Restart());
  auto t = db.Begin();
  ASSERT_OK(t.status());
  ASSERT_OK(db.Read(t.value(), Rel(2), rows[2][100].first).status());
  ASSERT_OK(db.Commit(t.value()));
  const obs::Histogram* h =
      db.metrics().find_histogram("recovery.on_demand_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_EQ(static_cast<uint64_t>(h->sum()), 10308333u);
}

}  // namespace
}  // namespace mmdb
