// Unified-event-loop equivalence and interleaved-sweep tests.
//
// The tentpole guarantee: dispatching the concurrent executor on the
// global EventScheduler is *byte-identical* to the legacy per-operation
// argmin scan — same commit order, same virtual timings, same metrics
// dump, same trace. The sweep tests then cover the new behavior the
// unified loop enables: the heat-ordered background recovery sweep
// running as events between transaction operations.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "concurrency_workload.h"
#include "core/database.h"
#include "obs/export.h"
#include "test_util.h"
#include "txn/executor.h"

namespace mmdb {
namespace {

using testing::ConcurrencyWorkload;

struct EngineFingerprint {
  std::vector<uint64_t> commit_order;
  uint64_t completion_ns = 0;
  uint64_t waits = 0;
  uint64_t deadlocks = 0;
  std::map<int64_t, int64_t> rows;
  std::string metrics_json;
  std::string trace_json;
};

Status RunEngine(uint64_t seed, uint32_t workers, bool unified,
                 EngineFingerprint* out) {
  ConcurrencyWorkload w;
  MMDB_RETURN_IF_ERROR(w.Setup(workers, /*trace=*/true));
  ConcurrentExecutor::Options eo;
  eo.unified_event_loop = unified;
  ConcurrentExecutor ex(w.db.get(), eo);
  for (TxnScript& s : w.MakeScripts(seed)) ex.Submit(std::move(s));
  MMDB_RETURN_IF_ERROR(ex.Run());
  out->commit_order = ex.commit_order();
  out->completion_ns = ex.completion_ns();
  out->waits = ex.waits();
  out->deadlocks = ex.deadlocks();
  auto rows = w.LogicalRows();
  MMDB_RETURN_IF_ERROR(rows.status());
  out->rows = rows.value();
  // The scheduler.* metrics are the one intentional difference between
  // engines (the legacy loop has no event heap); zero them so the dumps
  // must otherwise match byte for byte.
  w.db->metrics()
      .counter("scheduler.events_run", obs::Scope::kVolatile)
      ->Reset();
  w.db->metrics()
      .gauge("scheduler.peak_heap_depth", obs::Scope::kVolatile)
      ->Reset();
  out->metrics_json = obs::RegistryToJsonValue(w.db->metrics()).Dump();
  out->trace_json = w.db->tracer().ToJson();
  return Status::OK();
}

/// The unified loop must reproduce the legacy engine's schedule exactly:
/// any divergence in tie-breaking, grant draining, or admission order
/// shows up here as a commit-order / timing / trace diff.
TEST(EventLoopTest, UnifiedMatchesLegacyByteIdentical) {
  for (uint32_t workers : {1u, 4u, 8u}) {
    for (uint64_t seed : {3u, 7u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " seed=" + std::to_string(seed));
      EngineFingerprint legacy, unified;
      ASSERT_OK(RunEngine(seed, workers, /*unified=*/false, &legacy));
      ASSERT_OK(RunEngine(seed, workers, /*unified=*/true, &unified));
      EXPECT_EQ(legacy.commit_order, unified.commit_order);
      EXPECT_EQ(legacy.completion_ns, unified.completion_ns);
      EXPECT_EQ(legacy.waits, unified.waits);
      EXPECT_EQ(legacy.deadlocks, unified.deadlocks);
      EXPECT_EQ(legacy.rows, unified.rows);
      EXPECT_EQ(legacy.metrics_json, unified.metrics_json);
      EXPECT_EQ(legacy.trace_json, unified.trace_json);
    }
  }
}

TEST(EventLoopTest, SchedulerStatsExposed) {
  ConcurrencyWorkload w;
  ASSERT_OK(w.Setup(4));
  ConcurrentExecutor ex(w.db.get());  // unified by default
  for (TxnScript& s : w.MakeScripts(7)) ex.Submit(std::move(s));
  ASSERT_OK(ex.Run());
  EXPECT_GT(ex.scheduler_events_run(), 0u);
  EXPECT_GE(ex.scheduler_peak_depth(), 1u);
  // The dispatch hot path must be allocation-free: every event callback
  // fits SmallFn's inline buffer.
  EXPECT_EQ(ex.scheduler_heap_fallbacks(), 0u);
  EXPECT_GT(w.db->metrics().counter_value("scheduler.events_run"), 0u);
  EXPECT_GE(w.db->metrics().gauge_value("scheduler.peak_heap_depth"), 1.0);
}

// --- interleaved heat-ordered sweep ------------------------------------------

/// Post-crash rig with enough partitions for the sweep to matter: small
/// partitions, many rows, kOnDemand restart.
struct SweepRig {
  static constexpr int64_t kRows = 600;

  std::unique_ptr<Database> db;
  std::vector<EntityAddr> addrs;

  static DatabaseOptions Options(uint32_t workers) {
    DatabaseOptions o;
    o.partition_size_bytes = 4096;
    o.log_page_bytes = 1024;
    o.txn_workers = workers;
    o.restart_policy = RestartPolicy::kOnDemand;
    o.recovery_parallelism = 2;
    return o;
  }

  Status Setup(uint32_t workers) { return Setup(Options(workers)); }

  Status Setup(const DatabaseOptions& o) {
    db = std::make_unique<Database>(o);
    Schema schema({{"id", ColumnType::kInt64}, {"v", ColumnType::kInt64}});
    MMDB_RETURN_IF_ERROR(db->CreateRelation("r", schema));
    auto t = db->Begin();
    MMDB_RETURN_IF_ERROR(t.status());
    for (int64_t k = 0; k < kRows; ++k) {
      auto a = db->Insert(t.value(), "r", Tuple{k, k});
      MMDB_RETURN_IF_ERROR(a.status());
      addrs.push_back(a.value());
    }
    MMDB_RETURN_IF_ERROR(db->Commit(t.value()));
    MMDB_RETURN_IF_ERROR(db->CheckpointEverything());
    db->Crash();
    return db->Restart();
  }

  /// Scripts touching a narrow stripe of rows, so most partitions are
  /// left to the sweep rather than recovered on demand.
  std::vector<TxnScript> MakeScripts(int count) const {
    std::vector<TxnScript> scripts;
    for (int s = 0; s < count; ++s) {
      TxnScript ts;
      ts.label = "post-crash-" + std::to_string(s);
      for (int j = 0; j < 3; ++j) {
        int64_t row = (s * 3 + j) % 40;  // first few partitions only
        EntityAddr addr = addrs[row];
        ts.ops.push_back([addr, row](Database& d, Transaction* t) -> Status {
          return d.Update(t, "r", addr, Tuple{row, row + 1});
        });
      }
      scripts.push_back(std::move(ts));
    }
    return scripts;
  }

  Result<std::map<int64_t, int64_t>> Rows() {
    std::map<int64_t, int64_t> out;
    auto t = db->Begin();
    MMDB_RETURN_IF_ERROR(t.status());
    auto scan = db->Scan(t.value(), "r");
    MMDB_RETURN_IF_ERROR(scan.status());
    for (const auto& [addr, tuple] : scan.value()) {
      out[std::get<int64_t>(tuple[0])] = std::get<int64_t>(tuple[1]);
    }
    MMDB_RETURN_IF_ERROR(db->Commit(t.value()));
    return out;
  }
};

/// The sweep must genuinely interleave with transaction execution on the
/// shared virtual clock: installs happen while commits are still being
/// produced, not after the workload drains.
TEST(EventLoopTest, SweepInterleavesWithTransactions) {
  SweepRig rig;
  ASSERT_OK(rig.Setup(4));
  ConcurrentExecutor::Options eo;
  eo.background_sweep = true;
  ConcurrentExecutor ex(rig.db.get(), eo);
  for (TxnScript& s : rig.MakeScripts(24)) ex.Submit(std::move(s));
  ASSERT_OK(ex.Run());
  EXPECT_GT(ex.sweep_recovered(), 0u);
  // Interleaving proof: at least one commit lands before the last sweep
  // install, and at least one sweep install lands before the last commit.
  uint64_t first_commit = ~0ull, last_commit = 0;
  for (const ScriptResult& r : ex.results()) {
    ASSERT_EQ(r.outcome, ScriptOutcome::kCommitted);
    first_commit = std::min(first_commit, r.commit_ns);
    last_commit = std::max(last_commit, r.commit_ns);
  }
  EXPECT_GT(ex.last_sweep_install_ns(), first_commit);
  // The executor keeps sweeping after the last commit until the queue
  // drains; everything must be resident by the end.
  EXPECT_TRUE(rig.db->FullyResident());
}

/// Different sweep lane counts change virtual timings but never the
/// final logical state: every partition resident, every row intact.
TEST(EventLoopTest, SweepLaneCountPreservesFinalState) {
  std::map<int64_t, int64_t> rows1, rows4;
  for (uint32_t lanes : {1u, 4u}) {
    SweepRig rig;
    ASSERT_OK(rig.Setup(4));
    ConcurrentExecutor::Options eo;
    eo.background_sweep = true;
    eo.sweep_lanes = lanes;
    ConcurrentExecutor ex(rig.db.get(), eo);
    for (TxnScript& s : rig.MakeScripts(24)) ex.Submit(std::move(s));
    ASSERT_OK(ex.Run());
    EXPECT_TRUE(rig.db->FullyResident());
    auto rows = rig.Rows();
    ASSERT_OK(rows.status());
    (lanes == 1 ? rows1 : rows4) = rows.value();
  }
  EXPECT_EQ(rows1, rows4);
}

/// Sweep-during-transactions is deterministic: two identical runs agree
/// byte-for-byte on commit order, timings, metrics, and sweep progress.
TEST(EventLoopTest, SweepDuringTransactionsIsDeterministic) {
  std::vector<std::string> metrics(2), traces(2);
  std::vector<std::vector<uint64_t>> orders(2);
  std::vector<uint64_t> installs(2), recovered(2);
  for (int run = 0; run < 2; ++run) {
    SweepRig rig;
    ASSERT_OK(rig.Setup(4));
    ConcurrentExecutor::Options eo;
    eo.background_sweep = true;
    ConcurrentExecutor ex(rig.db.get(), eo);
    for (TxnScript& s : rig.MakeScripts(24)) ex.Submit(std::move(s));
    ASSERT_OK(ex.Run());
    orders[run] = ex.commit_order();
    installs[run] = ex.last_sweep_install_ns();
    recovered[run] = ex.sweep_recovered();
    metrics[run] = obs::RegistryToJsonValue(rig.db->metrics()).Dump();
    traces[run] = rig.db->tracer().ToJson();
  }
  EXPECT_EQ(orders[0], orders[1]);
  EXPECT_EQ(installs[0], installs[1]);
  EXPECT_EQ(recovered[0], recovered[1]);
  EXPECT_EQ(metrics[0], metrics[1]);
  EXPECT_EQ(traces[0], traces[1]);
}

/// Crash heat harvesting orders the sweep queue hottest-first: the
/// partition whose rows were read the most recovers ahead of colder
/// catalog-order predecessors.
TEST(EventLoopTest, SweepQueueIsHeatOrdered) {
  SweepRig rig;
  ASSERT_OK(rig.Setup(1));
  // Warm a late partition hard, then crash again so the heat harvest
  // includes the reads (Setup's crash only saw the uniform population).
  const int64_t hot_row = SweepRig::kRows - 1;
  auto t = rig.db->Begin();
  ASSERT_OK(t.status());
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(rig.db->Read(t.value(), "r", rig.addrs[hot_row]).status());
  }
  ASSERT_OK(rig.db->Commit(t.value()));
  rig.db->Crash();
  ASSERT_OK(rig.db->Restart());

  Database::RecoveryWorkItem first;
  ASSERT_TRUE(rig.db->NextSweepItem(&first));
  // The hot row's partition is nowhere near the catalog scan's start, so
  // catalog order would not put it first — heat order must.
  EXPECT_EQ(first.pid, rig.addrs[hot_row].partition);
}

/// kFullReload restores in catalog order even when the heat harvest
/// would put a late partition first: the one-lane restart's "recover"
/// spans come out in the order the relation's partitions were created.
TEST(EventLoopTest, FullReloadSweepKeepsCatalogOrder) {
  DatabaseOptions o = SweepRig::Options(1);
  o.restart_policy = RestartPolicy::kFullReload;
  o.recovery_parallelism = 1;
  o.enable_tracing = true;
  SweepRig rig;
  ASSERT_OK(rig.Setup(o));
  const int64_t hot_row = SweepRig::kRows - 1;
  auto t = rig.db->Begin();
  ASSERT_OK(t.status());
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(rig.db->Read(t.value(), "r", rig.addrs[hot_row]).status());
  }
  ASSERT_OK(rig.db->Commit(t.value()));
  rig.db->Crash();
  rig.db->tracer().Clear();
  ASSERT_OK(rig.db->Restart());

  std::vector<PartitionId> catalog_order;
  for (const EntityAddr& a : rig.addrs) {
    if (catalog_order.empty() || !(catalog_order.back() == a.partition)) {
      catalog_order.push_back(a.partition);
    }
  }
  ASSERT_GT(catalog_order.size(), 2u);
  std::vector<PartitionId> restored;
  const std::string trace = rig.db->tracer().ToJson();
  const std::string key = "\"name\":\"recover ";
  for (size_t at = trace.find(key); at != std::string::npos;
       at = trace.find(key, at + 1)) {
    const size_t from = at + key.size();
    const std::string name = trace.substr(from, trace.find('"', from) - from);
    for (const PartitionId& pid : catalog_order) {
      if (pid.ToString() == name) restored.push_back(pid);
    }
  }
  EXPECT_EQ(restored, catalog_order);
  EXPECT_FALSE(restored.front() == rig.addrs[hot_row].partition);
}

/// Explicit BackgroundRecoveryStep still drains everything under the
/// heat-ordered queue (shared with the executor's sweep).
TEST(EventLoopTest, BackgroundStepsDrainHeatOrderedQueue) {
  SweepRig rig;
  ASSERT_OK(rig.Setup(1));
  bool done = false;
  while (!done) {
    ASSERT_OK(rig.db->BackgroundRecoveryStep(&done));
  }
  EXPECT_TRUE(rig.db->FullyResident());
  auto rows = rig.Rows();
  ASSERT_OK(rows.status());
  EXPECT_EQ(rows.value().size(), static_cast<size_t>(SweepRig::kRows));
}

}  // namespace
}  // namespace mmdb
