// Crash-schedule exploration: enumerate crash points across every fault
// site of a scripted workload, re-run recovery after each, and assert the
// recovery invariants (durability, atomicity, index consistency,
// byte-identical partitions vs a no-crash oracle, post-recovery
// usability). Everything is reproducible from a single seed; the chaos CI
// job overrides it via MMDB_CHAOS_SEED.

#include <gtest/gtest.h>

#include <cstdlib>

#include "fault/crash_explorer.h"
#include "test_util.h"

namespace mmdb::fault {
namespace {

uint64_t SeedFromEnv() {
  const char* e = std::getenv("MMDB_CHAOS_SEED");
  if (e == nullptr || *e == '\0') return 1;
  return std::strtoull(e, nullptr, 10);
}

TEST(CrashExplorerTest, AllCrashPointsRecoverWithInvariantsIntact) {
  ExplorerOptions opts;
  opts.seed = SeedFromEnv();
  CrashExplorer explorer(opts);
  ExplorerReport report;
  ASSERT_OK(explorer.Run(&report));

  // The sweep must cover a substantial schedule: >= 100 distinct crash
  // points, with every site visited by the probe.
  EXPECT_GE(report.points_explored, 100u);
  EXPECT_GT(report.crashes_delivered, 0u);
  for (size_t s = 0; s < kSiteCount; ++s) {
    EXPECT_GT(report.probe_visits[s], 0u)
        << "site " << SiteName(static_cast<Site>(s))
        << " never visited by the probe workload";
  }

  std::string all;
  for (const std::string& f : report.failures) all += "\n  " + f;
  EXPECT_EQ(report.violations, 0u)
      << "seed " << opts.seed << " violations:" << all;
}

TEST(CrashExplorerTest, ReportIsDeterministicForASeed) {
  ExplorerOptions opts;
  opts.seed = 7;
  opts.max_points_per_site = 3;  // trimmed sweep: determinism, not coverage
  ExplorerReport a, b;
  {
    CrashExplorer explorer(opts);
    ASSERT_OK(explorer.Run(&a));
  }
  {
    CrashExplorer explorer(opts);
    ASSERT_OK(explorer.Run(&b));
  }
  EXPECT_EQ(a.points_explored, b.points_explored);
  EXPECT_EQ(a.crashes_delivered, b.crashes_delivered);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.failures, b.failures);
  for (size_t s = 0; s < kSiteCount; ++s) {
    EXPECT_EQ(a.probe_visits[s], b.probe_visits[s]) << "site " << s;
  }
}

TEST(CrashExplorerTest, ConcurrentWorkloadSurvivesEveryCrashPoint) {
  // The same sweep over the concurrent workload: four executor workers
  // interleaving contending transactions (hot-row updates through the
  // wait queues) while the crash lands at every site. The expected state
  // is rebuilt from the executor's commit order, so durability and
  // atomicity are checked against what actually committed concurrently.
  ExplorerOptions opts;
  opts.seed = SeedFromEnv();
  opts.txn_workers = 4;
  opts.max_points_per_site = 12;  // trimmed per-site: still every site
  CrashExplorer explorer(opts);
  ExplorerReport report;
  ASSERT_OK(explorer.Run(&report));

  EXPECT_GT(report.points_explored, 0u);
  EXPECT_GT(report.crashes_delivered, 0u);
  std::string all;
  for (const std::string& f : report.failures) all += "\n  " + f;
  EXPECT_EQ(report.violations, 0u)
      << "seed " << opts.seed << " workers=4 violations:" << all;
}

TEST(CrashExplorerTest, MvccReadersSurviveEveryCrashPoint) {
  // The concurrent sweep with read-only snapshot transactions riding in
  // every executor wave: crashes land while snapshots are live, version
  // chains are populated, and installs are in flight. On top of the
  // usual invariants, every point checks that no version survives the
  // restart, that a snapshot reader served right after recovery sees
  // exactly the recovered committed state, and that version pruning is
  // idempotent when the reclaimer resumes. Run across both log layouts
  // so version installs under epoch group commit are covered too.
  for (uint32_t streams : {1u, 4u}) {
    SCOPED_TRACE("streams=" + std::to_string(streams));
    ExplorerOptions opts;
    opts.seed = SeedFromEnv();
    opts.txn_workers = 4;
    opts.log_streams = streams;
    opts.mvcc_readers = true;
    opts.max_points_per_site = 12;  // trimmed per-site: still every site
    CrashExplorer explorer(opts);
    ExplorerReport report;
    ASSERT_OK(explorer.Run(&report));

    EXPECT_GT(report.points_explored, 0u);
    EXPECT_GT(report.crashes_delivered, 0u);
    std::string all;
    for (const std::string& f : report.failures) all += "\n  " + f;
    EXPECT_EQ(report.violations, 0u)
        << "seed " << opts.seed << " workers=4 streams=" << streams
        << " mvcc violations:" << all;
  }
}

TEST(CrashExplorerTest, PartitionedLogSurvivesEveryCrashPoint) {
  // Partitioned parallel logging under the concurrent workload: four
  // workers routed across four log streams with epoch group commit. The
  // sweep lands crashes at every site — including between the per-stream
  // epoch-fence writes, the group-commit window where an epoch is
  // acknowledged on a prefix of the streams only. The durability check
  // folds the epoch ledger against the restart's reported frontier, so
  // any stream keeping a discarded epoch (or dropping a fenced one)
  // shows up as a violation.
  ExplorerOptions opts;
  opts.seed = SeedFromEnv();
  opts.txn_workers = 4;
  opts.log_streams = 4;
  opts.max_points_per_site = 12;  // trimmed per-site: still every site
  CrashExplorer explorer(opts);
  ExplorerReport report;
  ASSERT_OK(explorer.Run(&report));

  EXPECT_GT(report.points_explored, 0u);
  EXPECT_GT(report.crashes_delivered, 0u);
  std::string all;
  for (const std::string& f : report.failures) all += "\n  " + f;
  EXPECT_EQ(report.violations, 0u)
      << "seed " << opts.seed << " workers=4 streams=4 violations:" << all;
}

TEST(CrashExplorerTest, SmallLogWindowSurvivesEveryCrashPoint) {
  // The other sweeps keep the default 2^30-page log window, so the window
  // never moves. A small one makes age checkpoints fire on their own, the
  // window roll log pages onto the archive, and every checkpoint release
  // the superseded image and the log below the tail: crashes land all
  // around those releases. Serial, four workers, and four log streams.
  struct Mode {
    uint32_t workers;
    uint32_t streams;
  };
  for (Mode m : {Mode{0, 1}, Mode{4, 1}, Mode{4, 4}}) {
    SCOPED_TRACE("workers=" + std::to_string(m.workers) +
                 " streams=" + std::to_string(m.streams));
    ExplorerOptions opts;
    opts.seed = SeedFromEnv();
    opts.txn_workers = m.workers;
    opts.log_streams = m.streams;
    opts.log_window_pages = 4;
    opts.max_points_per_site = 12;  // trimmed per-site: still every site
    CrashExplorer explorer(opts);
    ExplorerReport report;
    ASSERT_OK(explorer.Run(&report));

    EXPECT_GT(report.probe_log_pages_rolled, 0u);
    EXPECT_GT(report.probe_log_pages_released, 0u);
    EXPECT_GT(report.points_explored, 0u);
    EXPECT_GT(report.crashes_delivered, 0u);
    std::string all;
    for (const std::string& f : report.failures) all += "\n  " + f;
    EXPECT_EQ(report.violations, 0u)
        << "seed " << opts.seed << " workers=" << m.workers
        << " streams=" << m.streams << " small-window violations:" << all;
  }
}

TEST(CrashExplorerTest, SinglePointIsReproducible) {
  // The repro path printed in a failure line: re-run one (site, visit)
  // pair under the same seed.
  ExplorerOptions opts;
  opts.seed = SeedFromEnv();
  CrashExplorer explorer(opts);
  std::string f1, f2;
  ASSERT_OK(explorer.RunPoint(Site::kSlbFlush, 1, &f1));
  ASSERT_OK(explorer.RunPoint(Site::kSlbFlush, 1, &f2));
  EXPECT_EQ(f1, f2);
  EXPECT_TRUE(f1.empty()) << f1;
}

}  // namespace
}  // namespace mmdb::fault
