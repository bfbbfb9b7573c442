// perfbench: the repository's two-clock benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Runs one workload in this process (one host thread: the engine is
// single-threaded and its workers are virtual timelines), checks the
// outputs, and prints as its last stdout line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits 1 when a check fails and 2 on a usage or engine
// error.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Declared {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, as BENCHMARK.json declares them.
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"host_txn_per_s", "1/s"},
    {"host_recovery_s", "s"},
    {"vtxn_per_s", "1/s"},
    {"vlat_p50_us", "us"},
    {"vlat_p99_us", "us"},
    {"first_commit_vms", "ms"},
    {"perceived_downtime_vms", "ms"},
    {"full_residency_vms", "ms"},
    {"storage_write_amp", "ratio"},
    {"max_rate_at_slo_txn_per_s", "1/s"},
    {"ok_frac", "ratio"},
};

/// Every per-layer metric. A workload that does not exercise a layer
/// reports 0 for it.
constexpr Declared kPerLayer[] = {
    {"txn.lock_acquisitions_per_txn", "count"},
    {"txn.lock_waits_per_ktxn", "count"},
    {"txn.lock_wait_vus_p99", "us"},
    {"txn.deadlock_retries", "count"},
    {"txn.queue_wait_vus_p50", "us"},
    {"txn.read_host_ns_p50", "ns"},
    {"txn.update_host_ns_p50", "ns"},
    {"txn.insert_host_ns_p50", "ns"},
    {"txn.executor_self_host_s", "s"},
    {"txn.ladder_lag_vus_max", "us"},
    {"log.slb_bytes_per_txn", "B"},
    {"log.pages_flushed_per_ktxn", "count"},
    {"log.disk_bytes_written_per_txn", "B"},
    {"log.commit_wait_vus_p99", "us"},
    {"log.slb_occupancy_peak_bytes", "B"},
    {"log.disk_write_busy_frac", "ratio"},
    {"recovery.cpu_busy_frac", "ratio"},
    {"recovery.records_sorted_per_txn", "count"},
    {"recovery.checkpoints_per_ktxn", "count"},
    {"recovery.ckpt_bytes_written_per_txn", "B"},
    {"recovery.checkpoint_vms_p99", "ms"},
    {"recovery.restart_host_s", "s"},
    {"recovery.restart_catalog_vms", "ms"},
    {"recovery.restart_total_vms", "ms"},
    {"recovery.records_replayed_restart", "count"},
    {"core.ondemand_partitions", "count"},
    {"core.ondemand_vms_p50", "ms"},
    {"core.ondemand_vms_p99", "ms"},
    {"core.ondemand_records_per_partition", "count"},
    {"core.ondemand_log_pages_per_partition", "count"},
    {"core.sweep_partitions", "count"},
    {"core.lane_busy_frac", "ratio"},
    {"core.ckpt_pages_read_per_partition", "count"},
    {"core.post_crash_run_host_s", "s"},
    {"core.mvcc_versions_live_peak", "count"},
    {"core.mvcc_pruned_per_ktxn", "count"},
    {"core.reader_lock_waits", "count"},
    {"index.hash_lookup_host_ns_p50", "ns"},
    {"index.hash_lookup_host_ns_p99", "ns"},
    {"index.ttree_range_host_us_p50", "us"},
    {"index.range_entries_per_call", "count"},
    {"index.lookup_hit_frac", "ratio"},
    {"storage.insert_host_ns_p50", "ns"},
    {"storage.scan_host_ms_p50", "ms"},
    {"storage.host_bytes_per_tuple_byte", "ratio"},
    {"catalog.create_index_host_s", "s"},
    {"catalog.partitions_at_restart", "count"},
    {"sim.sched_events_per_txn", "count"},
    {"sim.sched_peak_depth", "count"},
    {"sim.main_cpu_busy_frac", "ratio"},
    {"obs.trace_overhead_frac", "ratio"},
};

/// Orders `got` like the declaration; a missing metric is a benchmark
/// bug.
template <size_t N>
bool Conform(const Declared (&decl)[N], const Metrics& got, Metrics* out) {
  bool ok = true;
  for (const Declared& d : decl) {
    if (!got.Has(d.name)) {
      std::fprintf(stderr, "metric %s was not measured\n", d.name);
      ok = false;
      continue;
    }
    out->Set(d.name, got.Get(d.name), d.unit);
  }
  return ok;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <tp1_steady|crash_ondemand|"
               "read_mostly_mvcc> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      args.trace = std::string(v) == "1";
    } else if (k == "--out-dir") {
      args.out_dir = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || !IsSingleDbWorkload(args.workload)) return Usage();

  RunOutcome out;
  const mmdb::Status st = RunSingleDb(args, &out);
  if (!st.ok()) {
    std::fprintf(stderr, "engine error: %s\n", st.ToString().c_str());
    return 2;
  }

  Metrics result;
  const bool complete =
      args.trace ? Conform(kPerLayer, out.layer, &result)
                 : Conform(kEndToEnd, out.e2e, &result);
  if (!complete) return 2;
  for (const std::string& f : out.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  result.Print();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              result.ToJson().c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
