// Simulator scale: host-time throughput of the unified event loop.
//
// Every other bench reports *virtual* time; this one measures the
// simulator itself. ROADMAP item 4 (and Wu et al.'s multicore recovery
// experiments, PAPERS.md) need 100x-scale configurations — dozens of
// workers over GB-scale storage with crash recovery running concurrently
// — and those are only affordable if the host cost per simulated
// operation stays flat. The pre-unification simulator rescanned every
// worker lane per dispatched operation (O(workers) argmin), could not
// overlap the background sweep with transactions at all, and checksummed
// every simulated disk page byte-at-a-time (~30% of host time — and the
// page volume grows with database size, which is exactly the axis a
// 100x experiment scales along). The unified loop replaces the scan with
// O(log workers) heap maintenance, runs the heat-ordered sweep as events
// on the same heap, and checksums with Crc32 (a carry-less-multiply
// folding kernel where the CPU has one, slicing-by-16 tables elsewhere).
//
// The experiment: populate one relation at GB-scale storage geometry
// (1 GiB stable memory, 32768 checkpoint-disk slots), checkpoint, then
// run the identical crash-recovery workload twice at 32 workers:
//
//   phase L (legacy)  — the preserved pre-unification simulator: crash,
//     restart on-demand, run every script through the old O(workers)
//     scan loop with the byte-serial reference checksum on every
//     simulated page transfer (Crc32Reference — the literal old hot
//     path, not a pessimized stand-in), then drain the cold partitions
//     with stop-and-go BackgroundRecoveryStep calls (the old coarse
//     alternation).
//   phase U (unified) — crash again, restart, run the same scripts on
//     the unified event loop with the background sweep interleaved
//     (background_sweep=true) and the Crc32 checksum (the folding
//     kernel or slicing-by-16, as dispatched). Phase U runs second, so
//     its recovery replays phase L's update log on top — that bias runs
//     *against* the unified loop.
//
// Both checksum implementations produce identical values, so the two
// phases' virtual trajectories stay byte-comparable; only host cost
// differs.
//
// Headline metric: simulated-txns-per-host-second for each phase, and
// their ratio. Virtual-time results (completion, committed counts) are
// deterministic and identical across hosts; host rates live in a
// separate "host" report section that tools/bench_diff.py treats as
// machine-local (only the speedup ratio is gated, loosely). The host
// section also carries the run's peak RSS and host bytes per tuple byte
// (peak RSS over the populated tuple bytes), info only.
//
// Built-in gates (process exits non-zero on failure):
//   * both phases commit every script (same schedule, no lost work);
//   * the unified loop reaches >= 2x the legacy loop's
//     sim-txns-per-host-second at 32 workers;
//   * the sweep genuinely interleaves: partitions install after the
//     first commit, not in a trailing drain;
//   * both phases end fully resident (ready_fraction == 1);
//   * unified throughput clears a conservative absolute floor
//     (MMDB_SIM_SCALE_FLOOR, default 2k sim-txns/host-s) — a backstop
//     against accidental-complexity regressions in the simulator core.
//
// Scale knobs (environment): MMDB_SIM_SCALE_ROWS (default 12,000,000 —
// 275 MB of tuples, several GB of simulated disk traffic across the two
// phases; set 40,000,000 for a true 1 GB image, see EXPERIMENTS.md),
// MMDB_SIM_SCALE_TXNS (default 6,000).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/disk.h"
#include "txn/executor.h"
#include "util/crc32.h"

namespace mmdb::bench {
namespace {

constexpr uint32_t kWorkers = 32;
constexpr uint32_t kRecoveryLanes = 4;
constexpr size_t kOpsPerTxn = 16;  // 15 point reads + 1 update
constexpr uint64_t kSeed = 1987;

uint64_t EnvScale(const char* name, uint64_t def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  char* end = nullptr;
  uint64_t parsed = std::strtoull(v, &end, 10);
  return (end != nullptr && *end == '\0' && parsed > 0) ? parsed : def;
}

uint64_t Rows() { return EnvScale("MMDB_SIM_SCALE_ROWS", 12'000'000); }
uint64_t Txns() { return EnvScale("MMDB_SIM_SCALE_TXNS", 6'000); }
double Floor() {
  return static_cast<double>(EnvScale("MMDB_SIM_SCALE_FLOOR", 2'000));
}

struct Rig {
  std::unique_ptr<Database> db;
  std::vector<EntityAddr> addrs;
};

DatabaseOptions MakeOptions() {
  DatabaseOptions o;
  o.txn_workers = kWorkers;
  o.recovery_parallelism = kRecoveryLanes;
  o.restart_policy = RestartPolicy::kOnDemand;
  // GB-scale storage geometry: enough checkpoint-disk slots for a 1.5 GB
  // image at the default 48 KB partition size, and stable memory sized
  // like a machine that hosts such a database.
  o.checkpoint_disk_slots = 32768;
  o.stable_memory_bytes = 1ull << 30;
  o.slb_capacity_bytes = 64ull << 20;
  // No mid-run checkpoints: both phases recover from the same image set
  // (plus, for phase U, phase L's log suffix).
  o.n_update = 1ull << 30;
  return o;
}

Status SetupRig(Rig* rig) {
  rig->db = std::make_unique<Database>(MakeOptions());
  Database* db = rig->db.get();
  MMDB_RETURN_IF_ERROR(Populate(db, "account", static_cast<int64_t>(Rows())));
  MMDB_RETURN_IF_ERROR(db->CheckpointEverything());
  auto txn = db->Begin();
  if (!txn.ok()) return txn.status();
  auto rows = db->Scan(txn.value(), "account");
  if (!rows.ok()) return rows.status();
  rig->addrs.reserve(rows.value().size());
  for (auto& [a, _] : rows.value()) rig->addrs.push_back(a);
  return db->Commit(txn.value());
}

// The working set is the first quarter of the relation: transactions
// fault those partitions back on-demand while the sweep restores the
// cold three quarters concurrently. (With a whole-relation working set
// the transactions would fault everything themselves and there would be
// nothing left to prove about interleaving.)
TxnScript MakeScript(const Rig& rig, Random* rng, size_t id) {
  const uint64_t hot_rows = std::max<uint64_t>(1, Rows() / 4);
  TxnScript s;
  s.label = "scale-" + std::to_string(id);
  for (size_t k = 0; k + 1 < kOpsPerTxn; ++k) {
    EntityAddr addr = rig.addrs[rng->Uniform(hot_rows)];
    s.ops.push_back([addr](Database& db, Transaction* t) {
      return db.Read(t, "account", addr).status();
    });
  }
  EntityAddr up = rig.addrs[rng->Uniform(hot_rows)];
  s.ops.push_back([up](Database& db, Transaction* t) {
    auto row = db.Read(t, "account", up);
    if (!row.ok()) return row.status();
    Tuple updated = row.value();
    updated[1] = std::get<int64_t>(updated[1]) + 1;
    return db.Update(t, "account", up, updated);
  });
  return s;
}

struct PhaseStats {
  bool ok = false;
  uint64_t committed = 0;
  double host_sec = 0;
  uint64_t phase_vns = 0;  // restart -> completion, virtual
  uint64_t first_commit_ns = 0;
  uint64_t sweep_installs = 0;
  uint64_t last_install_ns = 0;
  uint64_t events_run = 0;
  uint64_t bg_steps = 0;  // legacy stop-and-go drain calls
};

/// Crash + on-demand restart + the full workload + whatever it takes to
/// get back to full residency. Host-times everything from the first
/// dispatched operation to full residency — the legacy phase pays its
/// sweep as trailing stop-and-go batches, the unified phase inline.
/// Routes the whole legacy phase (restart, log writes, every simulated
/// page transfer) through the byte-serial pre-unification checksum.
struct CrcEraGuard {
  explicit CrcEraGuard(bool pre_unification) {
    UseReferenceCrc32(pre_unification);
  }
  ~CrcEraGuard() { UseReferenceCrc32(false); }
};

PhaseStats RunPhase(Rig* rig, bool unified) {
  PhaseStats out;
  CrcEraGuard crc_era(/*pre_unification=*/!unified);
  Database* db = rig->db.get();
  db->Crash();
  Status st = db->Restart();
  if (!st.ok()) {
    std::printf("ERROR: restart: %s\n", st.ToString().c_str());
    return out;
  }
  const uint64_t phase_v0 = db->now_ns();

  ConcurrentExecutor::Options eo;
  eo.unified_event_loop = unified;
  eo.background_sweep = unified;
  ConcurrentExecutor ex(db, eo);
  Random rng(kSeed);
  const uint64_t n = Txns();
  for (uint64_t i = 0; i < n; ++i) ex.Submit(MakeScript(*rig, &rng, i));

  const auto host_t0 = std::chrono::steady_clock::now();
  st = ex.Run();
  if (!st.ok()) {
    std::printf("ERROR: executor: %s\n", st.ToString().c_str());
    return out;
  }
  if (!unified) {
    // Pre-unification protocol: the sweep cannot overlap transactions,
    // so the cold partitions drain in stop-and-go batches afterwards.
    bool done = false;
    while (!done) {
      st = db->BackgroundRecoveryStep(&done);
      if (!st.ok()) {
        std::printf("ERROR: background step: %s\n", st.ToString().c_str());
        return out;
      }
      ++out.bg_steps;
    }
  }
  const auto host_t1 = std::chrono::steady_clock::now();

  db->AdvanceClockTo(ex.completion_ns());
  if (db->recovery_progress().ready_fraction() != 1.0) {
    std::printf("ERROR: phase ended at ready=%.3f\n",
                db->recovery_progress().ready_fraction());
    return out;
  }
  out.host_sec = std::chrono::duration<double>(host_t1 - host_t0).count();
  out.phase_vns = ex.completion_ns() - phase_v0;
  for (const ScriptResult& r : ex.results()) {
    if (r.outcome != ScriptOutcome::kCommitted) continue;
    ++out.committed;
    if (out.first_commit_ns == 0 || r.commit_ns < out.first_commit_ns) {
      out.first_commit_ns = r.commit_ns;
    }
  }
  out.sweep_installs = ex.sweep_recovered();
  out.last_install_ns = ex.last_sweep_install_ns();
  out.events_run = ex.scheduler_events_run();
  out.ok = true;
  return out;
}

/// Peak resident memory of this process in MiB (`VmHWM` from
/// /proc/self/status; 0 where that file does not exist).
double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double Rate(const PhaseStats& p) {
  return p.host_sec > 0 ? static_cast<double>(p.committed) / p.host_sec : 0;
}

/// Total simulated bytes moved through the checkpoint disk and the
/// duplexed log pair over the whole run (populate + both phases) — every
/// one of these bytes was checksummed on the host, so this is the volume
/// the "GB-scale" configuration claim rests on. Deterministic.
double SimDiskGb(Database* db) {
  uint64_t bytes = db->checkpoint_disk().bytes_read() +
                   db->checkpoint_disk().bytes_written();
  for (int m = 0; m < 2; ++m) {
    bytes += db->log_disks().member(m).bytes_read();
    bytes += db->log_disks().member(m).bytes_written();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0 * 1024.0);
}

bool PrintSimScale() {
  PrintHeader(
      "Simulator scale — sim-txns per host-second, unified event loop "
      "vs pre-unification scan loop, 32 workers, crash + sweep");
  obs::BenchReport report("sim_scale");

  const double data_mb =
      static_cast<double>(Rows()) * 24.0 / (1024.0 * 1024.0);
  std::printf("config: %llu rows (%.0f MB of tuples), %llu txns x %zu ops, "
              "%u workers, %u recovery lanes\n",
              static_cast<unsigned long long>(Rows()), data_mb,
              static_cast<unsigned long long>(Txns()), kOpsPerTxn, kWorkers,
              kRecoveryLanes);

  Rig rig;
  Status st = SetupRig(&rig);
  if (!st.ok()) {
    std::printf("ERROR: setup: %s\n", st.ToString().c_str());
    return false;
  }

  PhaseStats legacy = RunPhase(&rig, /*unified=*/false);
  if (!legacy.ok) return false;
  PhaseStats unified = RunPhase(&rig, /*unified=*/true);
  if (!unified.ok) return false;

  const double rate_l = Rate(legacy);
  const double rate_u = Rate(unified);
  const double speedup = rate_l > 0 ? rate_u / rate_l : 0;
  std::printf("legacy  | %8llu txns | %7.2f host-s | %9.0f sim-txn/host-s"
              " | %6.1f vms | %llu drain steps\n",
              static_cast<unsigned long long>(legacy.committed),
              legacy.host_sec, rate_l, double(legacy.phase_vns) / 1e6,
              static_cast<unsigned long long>(legacy.bg_steps));
  std::printf("unified | %8llu txns | %7.2f host-s | %9.0f sim-txn/host-s"
              " | %6.1f vms | %llu sweep installs, %llu events\n",
              static_cast<unsigned long long>(unified.committed),
              unified.host_sec, rate_u, double(unified.phase_vns) / 1e6,
              static_cast<unsigned long long>(unified.sweep_installs),
              static_cast<unsigned long long>(unified.events_run));

  bool ok = true;
  if (legacy.committed != Txns() || unified.committed != Txns()) {
    std::printf("ERROR: lost scripts: %llu / %llu committed of %llu\n",
                static_cast<unsigned long long>(legacy.committed),
                static_cast<unsigned long long>(unified.committed),
                static_cast<unsigned long long>(Txns()));
    ok = false;
  }
  if (speedup < 2.0) {
    std::printf("ERROR: unified %.0f vs legacy %.0f sim-txn/host-s "
                "(%.2fx < 2x)\n", rate_u, rate_l, speedup);
    ok = false;
  } else {
    std::printf("\nunified loop: %.2fx sim-txns-per-host-second over the "
                "pre-unification loop\n", speedup);
  }
  if (unified.sweep_installs == 0 ||
      unified.last_install_ns <= unified.first_commit_ns) {
    std::printf("ERROR: sweep did not interleave (installs=%llu, last "
                "install %llu vs first commit %llu)\n",
                static_cast<unsigned long long>(unified.sweep_installs),
                static_cast<unsigned long long>(unified.last_install_ns),
                static_cast<unsigned long long>(unified.first_commit_ns));
    ok = false;
  } else {
    std::printf("sweep interleaved: %llu installs, last at %.1f vms, first "
                "commit at %.1f vms\n",
                static_cast<unsigned long long>(unified.sweep_installs),
                double(unified.last_install_ns) / 1e6,
                double(unified.first_commit_ns) / 1e6);
  }
  if (rate_u < Floor()) {
    std::printf("ERROR: unified %.0f sim-txn/host-s below floor %.0f\n",
                rate_u, Floor());
    ok = false;
  }
  const double sim_gb = SimDiskGb(rig.db.get());
  std::printf("simulated disk traffic: %.2f GB (checkpoint + duplexed "
              "log, whole run)\n", sim_gb);
  // Host memory over the whole run (populate, checkpoint, both phases):
  // the engine's partitions plus every simulated disk page it holds.
  const double peak_rss_mb = PeakRssMb();
  const double host_bytes_per_tuple_byte = peak_rss_mb / data_mb;
  std::printf("host memory: %.0f MB peak RSS, %.1f host bytes per tuple "
              "byte\n", peak_rss_mb, host_bytes_per_tuple_byte);

  // Deterministic virtual-time results: safe to diff across machines.
  report.Headline("txns_committed", static_cast<int64_t>(unified.committed));
  report.Headline("sim_disk_gb", sim_gb);
  report.Headline("legacy_completion_vms", double(legacy.phase_vns) / 1e6);
  report.Headline("unified_completion_vms", double(unified.phase_vns) / 1e6);
  report.Headline("sweep_installs",
                  static_cast<int64_t>(unified.sweep_installs));
  report.Headline("scheduler_events",
                  static_cast<int64_t>(unified.events_run));
  // Host-local rates: machine-dependent, reported under "host" where
  // bench_diff gates only the speedup ratio (loosely — same machine runs
  // both phases, so the ratio is far more stable than the rates).
  obs::JsonValue host;
  host["sim_txns_per_host_sec_legacy"] = rate_l;
  host["sim_txns_per_host_sec_unified"] = rate_u;
  host["unified_speedup"] = speedup;
  host["host_seconds_legacy"] = legacy.host_sec;
  host["host_seconds_unified"] = unified.host_sec;
  host["floor_sim_txns_per_host_sec"] = Floor();
  host["peak_rss_mb"] = peak_rss_mb;
  host["host_bytes_per_tuple_byte"] = host_bytes_per_tuple_byte;
  report.Set("host", std::move(host));
  (void)report.Write();
  return ok;
}

void BM_SimScaleUnified(benchmark::State& state) {
  for (auto _ : state) {
    Rig rig;
    if (!SetupRig(&rig).ok()) state.SkipWithError("setup failed");
    PhaseStats u = RunPhase(&rig, /*unified=*/true);
    if (!u.ok) state.SkipWithError("run failed");
    state.counters["sim_txns_per_host_sec"] = Rate(u);
  }
}
BENCHMARK(BM_SimScaleUnified)->Unit(benchmark::kSecond);

}  // namespace
}  // namespace mmdb::bench

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  bool ok = mmdb::bench::PrintSimScale();
  ::benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
