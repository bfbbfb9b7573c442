#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "core/database.h"
#include "test_util.h"
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

DatabaseOptions SmallOptions() {
  DatabaseOptions o;
  o.partition_size_bytes = 16 * 1024;
  o.log_page_bytes = 2 * 1024;
  o.n_update = 100;
  return o;
}

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : db_(SmallOptions()) {}

  Transaction* MustBegin() {
    auto t = db_.Begin();
    EXPECT_TRUE(t.ok());
    return t.value();
  }

  Database db_;
};

TEST_F(DatabaseTest, CreateRelationAndInsertRead) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t = MustBegin();
  ASSERT_OK_AND_ASSIGN(EntityAddr a,
                       db_.Insert(t, "acct", Account(1, 100, "alice")));
  ASSERT_OK_AND_ASSIGN(Tuple back, db_.Read(t, "acct", a));
  EXPECT_EQ(back, Account(1, 100, "alice"));
  ASSERT_OK(db_.Commit(t));
}

TEST_F(DatabaseTest, DuplicateRelationRejected) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  EXPECT_TRUE(
      db_.CreateRelation("acct", AccountSchema()).IsInvalidArgument());
}

TEST_F(DatabaseTest, InsertValidatesSchema) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t = MustBegin();
  EXPECT_TRUE(db_.Insert(t, "acct", Tuple{int64_t{1}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(db_.Insert(t, "nope", Account(1, 1, "x")).status().IsNotFound());
  ASSERT_OK(db_.Commit(t));
}

TEST_F(DatabaseTest, UpdateAndDelete) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t = MustBegin();
  ASSERT_OK_AND_ASSIGN(EntityAddr a,
                       db_.Insert(t, "acct", Account(1, 100, "alice")));
  ASSERT_OK(db_.Commit(t));

  t = MustBegin();
  ASSERT_OK(db_.Update(t, "acct", a, Account(1, 250, "alice")));
  ASSERT_OK_AND_ASSIGN(Tuple mid, db_.Read(t, "acct", a));
  EXPECT_EQ(std::get<int64_t>(mid[1]), 250);
  ASSERT_OK(db_.Delete(t, "acct", a));
  EXPECT_TRUE(db_.Read(t, "acct", a).status().IsNotFound());
  ASSERT_OK(db_.Commit(t));
}

TEST_F(DatabaseTest, ScanSeesAllCommittedRows) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t = MustBegin();
  for (int i = 0; i < 300; ++i) {
    ASSERT_OK(db_.Insert(t, "acct", Account(i, i * 10, "own")).status());
  }
  ASSERT_OK(db_.Commit(t));
  t = MustBegin();
  ASSERT_OK_AND_ASSIGN(auto rows, db_.Scan(t, "acct"));
  EXPECT_EQ(rows.size(), 300u);
  std::set<int64_t> ids;
  for (const auto& [addr, tuple] : rows) ids.insert(std::get<int64_t>(tuple[0]));
  EXPECT_EQ(ids.size(), 300u);
  ASSERT_OK(db_.Commit(t));
  ASSERT_OK_AND_ASSIGN(auto* rel, db_.catalog().GetRelation("acct"));
  EXPECT_GE(rel->partitions.size(), 1u);
}

TEST_F(DatabaseTest, AbortRollsBackEverything) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t = MustBegin();
  ASSERT_OK_AND_ASSIGN(EntityAddr a,
                       db_.Insert(t, "acct", Account(1, 100, "alice")));
  ASSERT_OK(db_.Commit(t));

  t = MustBegin();
  ASSERT_OK(db_.Update(t, "acct", a, Account(1, 999, "mallory")));
  ASSERT_OK_AND_ASSIGN(EntityAddr b,
                       db_.Insert(t, "acct", Account(2, 5, "bob")));
  ASSERT_OK(db_.Abort(t));

  t = MustBegin();
  ASSERT_OK_AND_ASSIGN(Tuple back, db_.Read(t, "acct", a));
  EXPECT_EQ(back, Account(1, 100, "alice"));
  EXPECT_TRUE(db_.Read(t, "acct", b).status().IsNotFound());
  ASSERT_OK_AND_ASSIGN(auto rows, db_.Scan(t, "acct"));
  EXPECT_EQ(rows.size(), 1u);
  ASSERT_OK(db_.Commit(t));
}

TEST_F(DatabaseTest, TTreeIndexMaintainedByDml) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  ASSERT_OK(db_.CreateIndex("acct_bal", "acct", "balance", IndexType::kTTree));
  Transaction* t = MustBegin();
  std::vector<EntityAddr> addrs;
  for (int i = 0; i < 100; ++i) {
    ASSERT_OK_AND_ASSIGN(EntityAddr a,
                         db_.Insert(t, "acct", Account(i, i % 10, "x")));
    addrs.push_back(a);
  }
  ASSERT_OK(db_.Commit(t));

  t = MustBegin();
  ASSERT_OK_AND_ASSIGN(auto hits, db_.IndexLookup(t, "acct_bal", 3));
  EXPECT_EQ(hits.size(), 10u);
  ASSERT_OK_AND_ASSIGN(auto range, db_.IndexRange(t, "acct_bal", 2, 4));
  EXPECT_EQ(range.size(), 30u);
  for (size_t i = 1; i < range.size(); ++i) {
    EXPECT_LE(range[i - 1].key, range[i].key);
  }
  ASSERT_OK(db_.Update(t, "acct", addrs[3], Account(3, 77, "x")));
  ASSERT_OK(db_.Delete(t, "acct", addrs[13]));
  ASSERT_OK_AND_ASSIGN(auto after, db_.IndexLookup(t, "acct_bal", 3));
  EXPECT_EQ(after.size(), 8u);
  ASSERT_OK_AND_ASSIGN(auto moved, db_.IndexLookup(t, "acct_bal", 77));
  EXPECT_EQ(moved.size(), 1u);
  ASSERT_OK(db_.Commit(t));
}

TEST_F(DatabaseTest, HashIndexMaintainedByDml) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  ASSERT_OK(db_.CreateIndex("acct_id", "acct", "id", IndexType::kLinearHash));
  Transaction* t = MustBegin();
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(db_.Insert(t, "acct", Account(i, 0, "x")).status());
  }
  ASSERT_OK(db_.Commit(t));
  t = MustBegin();
  for (int i = 0; i < 200; i += 17) {
    ASSERT_OK_AND_ASSIGN(auto hits, db_.IndexLookup(t, "acct_id", i));
    ASSERT_EQ(hits.size(), 1u) << i;
    ASSERT_OK_AND_ASSIGN(Tuple tuple, db_.Read(t, "acct", hits[0]));
    EXPECT_EQ(std::get<int64_t>(tuple[0]), i);
  }
  EXPECT_TRUE(db_.IndexRange(t, "acct_id", 0, 5).status().IsNotSupported());
  ASSERT_OK(db_.Commit(t));
}

TEST_F(DatabaseTest, IndexBackfillOnCreate) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t = MustBegin();
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(db_.Insert(t, "acct", Account(i, i, "x")).status());
  }
  ASSERT_OK(db_.Commit(t));
  ASSERT_OK(db_.CreateIndex("late", "acct", "id", IndexType::kTTree));
  t = MustBegin();
  ASSERT_OK_AND_ASSIGN(auto hits, db_.IndexLookup(t, "late", 31));
  EXPECT_EQ(hits.size(), 1u);
  ASSERT_OK(db_.Commit(t));
}

TEST_F(DatabaseTest, IndexOnStringColumnRejected) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  EXPECT_TRUE(db_.CreateIndex("bad", "acct", "owner", IndexType::kTTree)
                  .IsNotSupported());
}

TEST_F(DatabaseTest, AbortedIndexInsertsRolledBack) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  ASSERT_OK(db_.CreateIndex("acct_id", "acct", "id", IndexType::kTTree));
  Transaction* t = MustBegin();
  ASSERT_OK(db_.Insert(t, "acct", Account(7, 0, "x")).status());
  ASSERT_OK(db_.Abort(t));
  t = MustBegin();
  ASSERT_OK_AND_ASSIGN(auto hits, db_.IndexLookup(t, "acct_id", 7));
  EXPECT_TRUE(hits.empty());
  ASSERT_OK(db_.Commit(t));
}

TEST_F(DatabaseTest, LockConflictsSurfaceAsBusy) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t1 = MustBegin();
  ASSERT_OK_AND_ASSIGN(EntityAddr a,
                       db_.Insert(t1, "acct", Account(1, 1, "x")));
  ASSERT_OK(db_.Commit(t1));

  t1 = MustBegin();
  Transaction* t2 = MustBegin();
  ASSERT_OK(db_.Update(t1, "acct", a, Account(1, 2, "x")));
  EXPECT_TRUE(db_.Update(t2, "acct", a, Account(1, 3, "x")).IsBusy());
  EXPECT_TRUE(db_.Read(t2, "acct", a).status().IsBusy());
  ASSERT_OK(db_.Commit(t1));
  ASSERT_OK(db_.Update(t2, "acct", a, Account(1, 4, "x")));
  ASSERT_OK(db_.Commit(t2));
}

TEST_F(DatabaseTest, RecoveryPumpDrainsSlbBacklog) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t = MustBegin();
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK(db_.Insert(t, "acct", Account(i, 0, "x")).status());
  }
  ASSERT_OK(db_.Commit(t));
  EXPECT_EQ(db_.slb().committed_backlog_records(), 0u);
  auto stats = db_.GetStats();
  EXPECT_GE(stats.records_sorted, 50u);
  EXPECT_EQ(stats.records_logged, stats.records_sorted);
}

TEST_F(DatabaseTest, UpdateCountCheckpointsTriggerAutomatically) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  for (int round = 0; round < 40; ++round) {
    Transaction* t = MustBegin();
    for (int i = 0; i < 10; ++i) {
      ASSERT_OK(db_.Insert(t, "acct", Account(round * 10 + i, 0, "y"))
                    .status());
    }
    ASSERT_OK(db_.Commit(t));
  }
  auto stats = db_.GetStats();
  EXPECT_GT(stats.checkpoints_completed, 0u);
  EXPECT_GT(stats.checkpoints_update_count, 0u);
}

TEST_F(DatabaseTest, StatsAccumulate) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  Transaction* t = MustBegin();
  ASSERT_OK(db_.Insert(t, "acct", Account(1, 1, "x")).status());
  ASSERT_OK(db_.Commit(t));
  auto s = db_.GetStats();
  EXPECT_GE(s.txns_committed, 2u);  // system txns count too
  EXPECT_GT(s.records_logged, 0u);
  EXPECT_GT(s.main_cpu_instructions, 0.0);
  EXPECT_GT(s.recovery_cpu_instructions, 0.0);
  EXPECT_GT(s.partitions_resident, 0u);
}

TEST_F(DatabaseTest, ManyRelations) {
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(db_.CreateRelation("rel" + std::to_string(i), AccountSchema()));
  }
  Transaction* t = MustBegin();
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK(
        db_.Insert(t, "rel" + std::to_string(i), Account(i, i, "z")).status());
  }
  ASSERT_OK(db_.Commit(t));
  t = MustBegin();
  for (int i = 0; i < 20; ++i) {
    ASSERT_OK_AND_ASSIGN(auto rows, db_.Scan(t, "rel" + std::to_string(i)));
    EXPECT_EQ(rows.size(), 1u);
  }
  ASSERT_OK(db_.Commit(t));
}

TEST_F(DatabaseTest, ForceCheckpointRelationCoversIndexes) {
  ASSERT_OK(db_.CreateRelation("acct", AccountSchema()));
  ASSERT_OK(db_.CreateIndex("acct_id", "acct", "id", IndexType::kTTree));
  Transaction* t = MustBegin();
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(db_.Insert(t, "acct", Account(i, 0, "x")).status());
  }
  ASSERT_OK(db_.Commit(t));
  ASSERT_OK(db_.ForceCheckpointRelation("acct"));
  ASSERT_OK_AND_ASSIGN(auto* rel, db_.catalog().GetRelation("acct"));
  for (const auto& d : rel->partitions) EXPECT_TRUE(d.has_checkpoint());
  ASSERT_OK_AND_ASSIGN(auto* idx, db_.catalog().GetIndex("acct_id"));
  for (const auto& d : idx->partitions) EXPECT_TRUE(d.has_checkpoint());
}

// Where InsertEntity's full first-fit scan puts `data`: the first
// partition of the segment whose free space plus garbage covers the
// entity and its 16-byte slot estimate, if that partition accepts it
// (tried on a copy); otherwise nullopt, a fresh partition.
std::optional<PartitionId> FirstFit(Database& db, SegmentId segment,
                                    const std::vector<uint8_t>& data) {
  const auto need = static_cast<uint32_t>(data.size()) + 16;
  for (Partition* p : db.partitions().SegmentPartitions(segment)) {
    if (p->free_bytes() + p->garbage_bytes() < need) continue;
    auto copy = Partition::FromImage(p->image());
    EXPECT_OK(copy.status());
    if (!copy.ok() || !copy.value()->Insert(data).ok()) return std::nullopt;
    return p->id();
  }
  return std::nullopt;
}

TEST(InsertPlacementTest, MatchesFullFirstFitScanAcrossFreeingOperations) {
  // Inserts into "a" interleave with operations that free space elsewhere
  // (same-size updates in another segment) and in "a" itself (deletes in
  // its earliest partitions, shrinking updates, aborted inserts). Every
  // insert must land where a full first-fit scan says, however the
  // insert accelerator resumes its scan.
  Database db(SmallOptions());
  Schema schema({{"id", ColumnType::kInt64}, {"pad", ColumnType::kString}});
  ASSERT_OK(db.CreateRelation("a", schema));
  ASSERT_OK(db.CreateRelation("b", schema));
  const SegmentId seg_a = db.catalog().GetRelation("a").value()->segment;
  std::vector<std::pair<int64_t, EntityAddr>> rows_a, rows_b;
  auto txn = db.Begin();
  ASSERT_OK(txn.status());
  for (int64_t i = 0; i < 700; ++i) {
    ASSERT_OK_AND_ASSIGN(EntityAddr a, db.Insert(txn.value(), "a",
                                                 Tuple{i, std::string(40, 'a')}));
    rows_a.emplace_back(i, a);
  }
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_OK_AND_ASSIGN(EntityAddr b, db.Insert(txn.value(), "b",
                                                 Tuple{i, std::string(40, 'b')}));
    rows_b.emplace_back(i, b);
  }
  ASSERT_OK(db.Commit(txn.value()));
  ASSERT_GE(db.partitions().SegmentPartitions(seg_a).size(), 3u);

  Random rng(42);
  int64_t next_id = 1000;
  uint64_t earlier_hits = 0;
  for (int i = 0; i < 600; ++i) {
    auto t = db.Begin();
    ASSERT_OK(t.status());
    switch (i % 5) {
      case 0: {  // same-size update in the other segment
        auto& [id, addr] = rows_b[rng.Uniform(rows_b.size())];
        ASSERT_OK(db.Update(t.value(), "b", addr,
                            Tuple{id, std::string(40, 'c')}));
        break;
      }
      case 1: {  // delete in one of a's two earliest partitions
        for (int tries = 0; tries < 50 && !rows_a.empty(); ++tries) {
          size_t k = rng.Uniform(rows_a.size());
          if (rows_a[k].second.partition.number > 1) continue;
          ASSERT_OK(db.Delete(t.value(), "a", rows_a[k].second));
          rows_a.erase(rows_a.begin() + static_cast<long>(k));
          break;
        }
        break;
      }
      case 2: {  // shrinking update in a
        auto& [id, addr] = rows_a[rng.Uniform(rows_a.size())];
        ASSERT_OK(db.Update(t.value(), "a", addr, Tuple{id, std::string()}));
        break;
      }
      case 3: {  // an insert into a that rolls back
        auto u = db.Begin();
        ASSERT_OK(u.status());
        ASSERT_OK(db.Insert(u.value(), "a", Tuple{int64_t{-1}, std::string(60, 'e')})
                      .status());
        ASSERT_OK(db.Abort(u.value()));
        break;
      }
      default:
        break;
    }
    Tuple tuple{next_id, std::string(rng.Uniform(60), 'f')};
    ASSERT_OK_AND_ASSIGN(auto bytes, schema.Encode(tuple));
    std::optional<PartitionId> expect = FirstFit(db, seg_a, bytes);
    const size_t before = db.partitions().SegmentPartitions(seg_a).size();
    ASSERT_OK_AND_ASSIGN(EntityAddr got, db.Insert(t.value(), "a", tuple));
    if (expect.has_value()) {
      ASSERT_EQ(got.partition, *expect) << "insert " << i;
      if (expect->number + 1 < before) ++earlier_hits;
    } else {
      ASSERT_EQ(got.partition.number, before) << "insert " << i;
    }
    rows_a.emplace_back(next_id++, got);
    ASSERT_OK(db.Commit(t.value()));
  }
  // Freed space in earlier partitions was actually reused.
  EXPECT_GT(earlier_hits, 0u);
}

}  // namespace
}  // namespace mmdb
