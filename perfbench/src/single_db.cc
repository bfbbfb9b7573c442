// The three single-Database workloads: tp1_steady, crash_ondemand and
// read_mostly_mvcc.
//
// One run repeats an *epoch* while the next one is expected to end within
// the run's wall-time budget (at least one epoch). An epoch is a pure
// function of the seed:
//
//   1. setup       — fresh Database, populate (+ indexes), initial
//                    CheckpointEverything: setup_s.
//   2. steady      — a closed loop: every script of the phase is
//                    submitted to one ConcurrentExecutor, whose 16
//                    virtual workers take the next script as soon as
//                    they finish one. Throughput and write amplification
//                    come from here, before any crash.
//   3. crash cycles— steady traffic, Crash(), on-demand Restart(), the
//                    same traffic with the interleaved background sweep
//                    until every partition is resident; output checks
//                    (untimed) after each.
//   4. ladder      — first epoch only: closed-loop settle traffic, rung 0
//                    (the lowest rate of a fixed geometric ladder of
//                    batched open-loop rates: latency), then the rungs
//                    upward from a start rate: max_rate_at_slo_txn_per_s.
//   5. checks      — the output checks over everything the epoch did.
//
// The virtual-clock results of phases 2-3 must be byte-identical between
// the epochs of a run; the run fails otherwise. Host-clock results are CPU
// time of this thread (HostCpuNs), combined over the epochs lap by lap
// (LapwiseSeconds).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness.h"
#include "obs/timeseries.h"
#include "txn/executor.h"
#include "workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using mmdb::ConcurrentExecutor;
using mmdb::Database;
using mmdb::DatabaseOptions;
using mmdb::EntityAddr;
using mmdb::Result;
using mmdb::ScriptOutcome;
using mmdb::ScriptResult;
using mmdb::Status;
using mmdb::Transaction;
using mmdb::Tuple;
using mmdb::TxnOp;
using mmdb::TxnScript;

/// Serialized size of one AccountSchema tuple (three int64 columns): the
/// unit of user data for storage_write_amp.
constexpr uint64_t kTupleBytes = 24;
constexpr int64_t kInitialBalance = 1000;  // what Populate writes
constexpr uint32_t kWorkers = 16;
constexpr uint32_t kRecoveryLanes = 4;
/// Plans are generated in chunks, each from its own derived seed, so
/// the stream is unbounded and still a pure function of the run seed.
constexpr size_t kPlanChunk = 4096;

/// What the benchmark needs to know about a generated transaction.
struct Meta {
  uint64_t user_bytes = 0;  // tuple bytes it writes when it commits
  bool reader = false;      // MVCC snapshot reader
  uint8_t nrows = 0;        // crash_ondemand ledger rows
  std::array<uint32_t, 2> rows{0, 0};
};

/// Counters the op closures bump. Only read-only scripts write them, and
/// those never block, so no closure replays and double-counts.
struct OpCounts {
  uint64_t lookups = 0;
  uint64_t lookup_hits = 0;
  uint64_t ranges = 0;
  uint64_t range_entries = 0;
  size_t versions_live_peak = 0;
};
OpCounts g_ops;

/// Where setup's CPU laps go (nullptr: not measured).
Stamps* g_setup_laps = nullptr;
/// Populate batches between two setup stamps.
constexpr int kSetupLapBatches = 50;

void SetupLap() {
  if (g_setup_laps != nullptr) g_setup_laps->push_back(HostCpuNs());
}

// --- op closures with host spans around each engine call --------------------

Result<Tuple> TimedRead(Database& db, Transaction* t, const std::string& rel,
                        const EntityAddr& a) {
  HostSpan s("db.Read", t->id());
  return db.Read(t, rel, a);
}

TxnOp BumpOp(std::string rel, EntityAddr addr) {
  return [rel = std::move(rel), addr](Database& db, Transaction* t) -> Status {
    HostSpan op("op.bump", t->id());
    auto row = TimedRead(db, t, rel, addr);
    if (!row.ok()) return row.status();
    Tuple updated = row.value();
    updated[1] = std::get<int64_t>(updated[1]) + 1;
    HostSpan s("db.Update", t->id());
    return db.Update(t, rel, addr, updated);
  };
}

TxnOp HistoryOp(int64_t hist_id) {
  return [hist_id](Database& db, Transaction* t) -> Status {
    HostSpan op("op.history", t->id());
    HostSpan s("db.Insert", t->id());
    return db.Insert(t, "history", Tuple{hist_id, int64_t{1}, int64_t{1}})
        .status();
  };
}

/// Hash-index point lookup of account `key`, then a read of the row it
/// points at; the row must carry that key.
TxnOp LookupOp(int64_t key) {
  return [key](Database& db, Transaction* t) -> Status {
    HostSpan op("op.lookup", t->id());
    Result<std::vector<EntityAddr>> hits = [&] {
      HostSpan s("db.IndexLookup", t->id());
      return db.IndexLookup(t, "account_id_hash", key);
    }();
    if (!hits.ok()) return hits.status();
    ++g_ops.lookups;
    g_ops.versions_live_peak =
        std::max(g_ops.versions_live_peak, db.mvcc_versions_live());
    if (hits.value().size() != 1) {
      return Status::Corruption("lookup of account " + std::to_string(key) +
                                " returned " +
                                std::to_string(hits.value().size()) + " rows");
    }
    auto row = TimedRead(db, t, "account", hits.value()[0]);
    if (!row.ok()) return row.status();
    if (std::get<int64_t>(row.value()[0]) != key) {
      return Status::Corruption("lookup of account " + std::to_string(key) +
                                " returned another row");
    }
    ++g_ops.lookup_hits;
    return Status::OK();
  };
}

TxnOp RangeOp(int64_t lo, int64_t hi) {
  return [lo, hi](Database& db, Transaction* t) -> Status {
    HostSpan op("op.range", t->id());
    HostSpan s("db.IndexRange", t->id());
    auto r = db.IndexRange(t, "account_id_ttree", lo, hi);
    if (!r.ok()) return r.status();
    ++g_ops.ranges;
    g_ops.range_entries += r.value().size();
    if (static_cast<int64_t>(r.value().size()) != hi - lo + 1) {
      return Status::Corruption("range scan returned " +
                                std::to_string(r.value().size()) + " entries");
    }
    return Status::OK();
  };
}

TxnOp ScanOp(std::string rel) {
  return [rel = std::move(rel)](Database& db, Transaction* t) -> Status {
    HostSpan op("op.scan", t->id());
    HostSpan s("db.Scan", t->id());
    return db.Scan(t, rel).status();
  };
}

// --- setup helpers -----------------------------------------------------------

/// Populates `relation` with `rows` AccountSchema tuples {id, 1000,
/// id % 97} in 100-row transactions, one host span per batch (the
/// layout of bench_common.h's Populate, timed from outside).
Status PopulateTimed(Database* db, const std::string& relation, int64_t rows) {
  MMDB_RETURN_IF_ERROR(
      db->CreateRelation(relation, mmdb::bench::AccountSchema()));
  for (int64_t id = 0, batch = 0; id < rows; ++batch) {
    if (batch % kSetupLapBatches == 0) SetupLap();
    HostSpan s("populate.batch");
    auto txn = db->Begin();
    if (!txn.ok()) return txn.status();
    for (int k = 0; k < 100 && id < rows; ++k, ++id) {
      auto a = db->Insert(txn.value(), relation,
                          Tuple{id, kInitialBalance, id % 97});
      if (!a.ok()) return a.status();
    }
    MMDB_RETURN_IF_ERROR(db->Commit(txn.value()));
  }
  return Status::OK();
}

Status CollectAddrs(Database* db, const std::string& rel,
                    std::vector<EntityAddr>* out) {
  auto txn = db->Begin();
  if (!txn.ok()) return txn.status();
  auto rows = db->Scan(txn.value(), rel);
  if (!rows.ok()) return rows.status();
  out->clear();
  out->reserve(rows.value().size());
  for (auto& [a, tuple] : rows.value()) out->push_back(a);
  return db->Commit(txn.value());
}

/// Sum of column 1 and row count of a relation (one verifying scan).
Status SumBalances(Database* db, const std::string& rel, int64_t* sum,
                   int64_t* count) {
  auto txn = db->Begin();
  if (!txn.ok()) return txn.status();
  auto rows = db->Scan(txn.value(), rel);
  if (!rows.ok()) return rows.status();
  *sum = 0;
  *count = static_cast<int64_t>(rows.value().size());
  for (auto& [a, tuple] : rows.value()) *sum += std::get<int64_t>(tuple[1]);
  return db->Commit(txn.value());
}

// --- the workloads -------------------------------------------------------------

/// How much of each phase one epoch of a workload runs.
struct Shape {
  size_t steady_txns;   // closed-loop steady phase
  size_t cycle_before;  // per crash cycle, nominal pre-crash traffic
  size_t cycle_after;   // per crash cycle, post-crash traffic
  int crash_cycles;     // measured cycles (plus one warm-up)
  /// Commit-rate curve window for perceived downtime: wide enough that a
  /// window holds ~100+ steady-state commits.
  uint64_t curve_window_ns;
  size_t latency_txns;  // arrivals of ladder rung 0 (vlat_*)
  double ladder_start;  // rate (txn per virtual s) the ladder scan starts at
  size_t ladder_txns;   // arrivals per scanned rung
  double slo_p99_us;    // the ladder's p99 latency and backlog limit
  /// Setup-only repetitions after each untraced epoch (build the
  /// database, then drop it), so setup_s is a median over many setups.
  int extra_setups;
};

/// One single-database workload: how to build it, its traffic stream,
/// its ledger and its output checks.
class Workload {
 public:
  explicit Workload(Shape shape) : shape_(std::move(shape)) {}
  virtual ~Workload() = default;
  const Shape& shape() const { return shape_; }
  virtual DatabaseOptions Options() const {
    DatabaseOptions o;
    o.txn_workers = kWorkers;
    o.recovery_parallelism = kRecoveryLanes;
    o.commit_mode = mmdb::CommitMode::kStableMemory;
    o.restart_policy = mmdb::RestartPolicy::kOnDemand;
    o.n_update = 1000;  // Table 2's N_update: update-count checkpoints
    // Age checkpoints: a partition whose oldest log page falls out of a
    // 256-page (2 MiB) window is checkpointed, which bounds every log
    // chain and keeps successive crash cycles alike.
    o.log_window_pages = 256;
    o.telemetry_bucket_ns = shape_.curve_window_ns;
    return o;
  }
  /// Creates and fills the relations (before the initial checkpoint).
  virtual Status Setup(Database* db) = 0;
  /// Tuple bytes loaded by Setup (for host bytes per tuple byte).
  virtual uint64_t LoadedTupleBytes() const = 0;
  /// Resets the traffic stream and the ledger for a new epoch.
  virtual void Reset() = 0;
  /// The next transaction of the traffic stream.
  virtual Meta Next(TxnScript* script) = 0;
  /// Books a committed transaction into the ledger.
  virtual void Committed(const Meta& m) = 0;
  /// Output checks against the ledger (between phases; untimed). `all`:
  /// every row the ledger ever saw updated; otherwise a workload may
  /// check only what changed since its last check.
  virtual void Verify(Database* db, RunOutcome* out, bool all) = 0;

 private:
  Shape shape_;
};

/// Gray's TP1 (debit/credit) over the four relations of bench_common.h;
/// shared by tp1_steady and, as the writer side, read_mostly_mvcc.
class Tp1Base : public Workload {
 public:
  Tp1Base(Shape shape, uint64_t seed, int64_t accounts)
      : Workload(std::move(shape)),
        seed_(seed),
        accounts_(accounts),
        tellers_(std::max<int64_t>(10, accounts / 100)),
        branches_(std::max<int64_t>(2, accounts / 1000)) {}

  Status Setup(Database* db) override {
    MMDB_RETURN_IF_ERROR(PopulateTimed(db, "account", accounts_));
    MMDB_RETURN_IF_ERROR(PopulateTimed(db, "teller", tellers_));
    MMDB_RETURN_IF_ERROR(PopulateTimed(db, "branch", branches_));
    MMDB_RETURN_IF_ERROR(
        db->CreateRelation("history", mmdb::bench::AccountSchema()));
    MMDB_RETURN_IF_ERROR(CollectAddrs(db, "account", &acct_));
    MMDB_RETURN_IF_ERROR(CollectAddrs(db, "teller", &teller_));
    return CollectAddrs(db, "branch", &branch_);
  }
  uint64_t LoadedTupleBytes() const override {
    return static_cast<uint64_t>(accounts_ + tellers_ + branches_) *
           kTupleBytes;
  }
  void Reset() override {
    committed_writes_ = 0;
    next_hist_ = 0;
  }
  void Committed(const Meta& m) override {
    if (!m.reader) ++committed_writes_;
  }

  /// Balance sums equal the committed count on account, teller and
  /// branch, and history has one row per commit.
  void Verify(Database* db, RunOutcome* out, bool /*all*/) override {
    const std::pair<const char*, int64_t> rels[] = {
        {"account", accounts_}, {"teller", tellers_}, {"branch", branches_}};
    for (const auto& [rel, rows] : rels) {
      int64_t sum = 0, count = 0;
      Status st = SumBalances(db, rel, &sum, &count);
      out->Check(st.ok(), std::string("scan ") + rel + ": " + st.ToString());
      out->Check(count == rows && sum == rows * kInitialBalance +
                                             committed_writes_,
                 std::string(rel) + " balance sum " + std::to_string(sum) +
                     " != " + std::to_string(rows * kInitialBalance) + " + " +
                     std::to_string(committed_writes_) + " commits");
    }
    int64_t sum = 0, count = 0;
    Status st = SumBalances(db, "history", &sum, &count);
    out->Check(st.ok() && count == committed_writes_,
               "history rows " + std::to_string(count) + " != " +
                   std::to_string(committed_writes_) + " commits");
  }

 protected:
  /// A TP1 write: bump account, teller, branch; insert history — four
  /// log records.
  Meta Tp1Script(const mmdb::bench::Tp1Plan& p, TxnScript* s) {
    const int64_t hist = next_hist_++;
    s->label = "tp1-" + std::to_string(hist);
    s->ops.push_back(BumpOp("account", acct_[p.account]));
    s->ops.push_back(BumpOp("teller", teller_[p.teller]));
    s->ops.push_back(BumpOp("branch", branch_[p.branch]));
    s->ops.push_back(HistoryOp(hist));
    Meta m;
    m.user_bytes = 4 * kTupleBytes;
    return m;
  }

  uint64_t seed_;
  int64_t accounts_, tellers_, branches_;
  std::vector<EntityAddr> acct_, teller_, branch_;
  int64_t committed_writes_ = 0;
  int64_t next_hist_ = 0;
};

class Tp1Steady : public Tp1Base {
 public:
  explicit Tp1Steady(uint64_t seed)
      : Tp1Base(Shape{.steady_txns = 60'000,
                      .cycle_before = 3'000,
                      .cycle_after = 3'000,
                      .crash_cycles = 9,
                      .curve_window_ns = 5'000'000,
                      .latency_txns = 360'000,
                      .ladder_start = 18'000,
                      .ladder_txns = 18'000,
                      .slo_p99_us = 150'000,
                      .extra_setups = 3},
                seed, 100'000) {}

  void Reset() override {
    Tp1Base::Reset();
    chunk_ = 0;
    plans_.clear();
    pos_ = 0;
  }
  Meta Next(TxnScript* s) override {
    if (pos_ == plans_.size()) {
      plans_ = mmdb::bench::MakeTp1Plans(MixSeed(seed_, chunk_++), kPlanChunk,
                                         acct_.size(), teller_.size(),
                                         branch_.size());
      pos_ = 0;
    }
    return Tp1Script(plans_[pos_++], s);
  }

 private:
  uint64_t chunk_ = 0;
  std::vector<mmdb::bench::Tp1Plan> plans_;
  size_t pos_ = 0;
};

/// 95% MVCC snapshot readers (hash-index point lookups; periodically a
/// T-Tree range scan or a full Scan), 5% TP1 writers.
class ReadMostly : public Tp1Base {
 public:
  static constexpr int64_t kAccounts = 20'000;
  /// Every 64th reader is a long read: a T-Tree range scan, or for one
  /// in kFullScanEvery of them a full Scan. Full scans are rare so that
  /// the ladder's batches (which drain before the next release) are not
  /// all held behind one.
  static constexpr size_t kScanEvery = 64;
  static constexpr uint64_t kFullScanEvery = 16;
  static constexpr int64_t kRangeKeys = 512;

  explicit ReadMostly(uint64_t seed)
      : Tp1Base(Shape{.steady_txns = 30'000,
                      .cycle_before = 3'000,
                      .cycle_after = 3'000,
                      .crash_cycles = 9,
                      .curve_window_ns = 5'000'000,
                      .latency_txns = 18'000,
                      .ladder_start = 18'000,
                      .ladder_txns = 6'000,
                      .slo_p99_us = 60'000,
                      .extra_setups = 3},
                seed, kAccounts) {}

  Status Setup(Database* db) override {
    MMDB_RETURN_IF_ERROR(Tp1Base::Setup(db));
    {
      HostSpan s("db.CreateIndex");
      MMDB_RETURN_IF_ERROR(db->CreateIndex("account_id_hash", "account", "id",
                                           mmdb::IndexType::kLinearHash));
    }
    HostSpan s("db.CreateIndex");
    return db->CreateIndex("account_id_ttree", "account", "id",
                           mmdb::IndexType::kTTree);
  }
  void Reset() override {
    Tp1Base::Reset();
    chunk_ = 0;
    plans_.clear();
    pos_ = 0;
    long_reads_ = 0;
  }
  Meta Next(TxnScript* s) override {
    if (pos_ == plans_.size()) {
      plans_ = mmdb::bench::MakeReadMostlyPlans(
          MixSeed(seed_, chunk_++), kPlanChunk, acct_.size(), teller_.size(),
          branch_.size(), 0.95, kScanEvery);
      pos_ = 0;
    }
    const mmdb::bench::ReadMostlyPlan& p = plans_[pos_++];
    if (!p.is_read) return Tp1Script(p.write, s);
    s->label = "read";
    s->options.read_only = true;
    if (p.long_scan) {
      if (long_reads_++ % kFullScanEvery != 0) {
        const auto lo = static_cast<int64_t>(p.reads[0]) % (kAccounts - kRangeKeys);
        s->ops.push_back(RangeOp(lo, lo + kRangeKeys - 1));
      } else {
        s->ops.push_back(ScanOp("account"));
      }
    }
    for (size_t r : p.reads) s->ops.push_back(LookupOp(static_cast<int64_t>(r)));
    Meta m;
    m.reader = true;
    return m;
  }

 private:
  uint64_t chunk_ = 0;
  std::vector<mmdb::bench::ReadMostlyPlan> plans_;
  size_t pos_ = 0;
  uint64_t long_reads_ = 0;
};

/// A relation well beyond the host's caches under skewed two-row updates
/// (bench/workload.h's OpenLoopZipf key picker, key 0 hottest).
class CrashOnDemand : public Workload {
 public:
  static constexpr int64_t kRows = 2'000'000;
  /// Rows are picked Zipf over blocks of kBlockRows consecutive rows
  /// (about one partition each), uniform inside the block. With the
  /// engine's Random::Skewed, P(block < k) = (k/blocks)^(1-kTheta): the
  /// hottest block takes 71% of the picks, the top 100 blocks 89%, and
  /// the rest spreads over every partition. A weaker skew leaves
  /// post-crash throughput on a plateau near half of steady for the
  /// whole sweep, where the 50% downtime threshold is ill-conditioned.
  /// Skewing rows directly would send 86% of picks to row 0 at theta
  /// 0.99, where read-then-update scripts livelock on S->X upgrade
  /// deadlocks.
  static constexpr int64_t kBlockRows = 2000;
  static constexpr double kTheta = 0.95;

  explicit CrashOnDemand(uint64_t seed)
      : Workload(Shape{.steady_txns = 150'000,
                       .cycle_before = 4'000,
                       .cycle_after = 4'000,
                       .crash_cycles = 12,
                       .curve_window_ns = 1'000'000,
                       .latency_txns = 18'000,
                       .ladder_start = 22'000,
                       .ladder_txns = 54'000,
                       .slo_p99_us = 15'000,
                       .extra_setups = 0}),
        seed_(seed) {}

  Status Setup(Database* db) override {
    MMDB_RETURN_IF_ERROR(PopulateTimed(db, "account", kRows));
    return CollectAddrs(db, "account", &addr_);
  }
  uint64_t LoadedTupleBytes() const override { return kRows * kTupleBytes; }
  void Reset() override {
    keys_ = std::make_unique<mmdb::bench::OpenLoopZipf>(
        MixSeed(seed_, 1), 1.0, static_cast<uint64_t>(kRows / kBlockRows),
        kTheta);
    ledger_.assign(static_cast<size_t>(kRows), 0);
    dirty_.assign(static_cast<size_t>(kRows), false);
    touched_.clear();
    fresh_.clear();
  }
  Meta Next(TxnScript* s) override {
    Meta m;
    m.nrows = 2;
    for (uint32_t& r : m.rows) {
      const auto in_block = static_cast<int64_t>(keys_->NextCoin() * kBlockRows);
      r = static_cast<uint32_t>(keys_->NextKey() * kBlockRows + in_block);
    }
    s->label = "zipf2";
    for (uint32_t r : m.rows) s->ops.push_back(BumpOp("account", addr_[r]));
    m.user_bytes = 2 * kTupleBytes;
    return m;
  }
  void Committed(const Meta& m) override {
    for (size_t i = 0; i < m.nrows; ++i) {
      if (ledger_[m.rows[i]]++ == 0) touched_.push_back(m.rows[i]);
      if (!dirty_[m.rows[i]]) {
        dirty_[m.rows[i]] = true;
        fresh_.push_back(m.rows[i]);
      }
    }
  }
  /// Every acknowledged update survived: each row holds its initial
  /// balance plus the committed bumps the ledger booked. Bumps only add,
  /// so an update a crash lost stays missing; the rows bumped since the
  /// last check catch it at once, the check of every touched row at the
  /// end of the epoch catches it at the latest.
  void Verify(Database* db, RunOutcome* out, bool all) override {
    auto txn = db->Begin();
    out->Check(txn.ok(), "ledger check begin: " + txn.status().ToString());
    if (!txn.ok()) return;
    uint64_t bad = 0;
    const std::vector<uint32_t>& rows = all ? touched_ : fresh_;
    for (uint32_t r : rows) {
      auto row = db->Read(txn.value(), "account", addr_[r]);
      if (!row.ok() ||
          std::get<int64_t>(row.value()[1]) != kInitialBalance + ledger_[r]) {
        ++bad;
      }
    }
    out->Check(db->Commit(txn.value()).ok(), "ledger check commit");
    out->Check(bad == 0, std::to_string(bad) + " of " +
                             std::to_string(rows.size()) +
                             " ledger rows lost acknowledged updates");
    for (uint32_t r : fresh_) dirty_[r] = false;
    fresh_.clear();
  }


 private:
  uint64_t seed_;
  std::vector<EntityAddr> addr_;
  std::unique_ptr<mmdb::bench::OpenLoopZipf> keys_;
  std::vector<int64_t> ledger_;
  std::vector<bool> dirty_;        // bumped since the last check
  std::vector<uint32_t> touched_;  // every row ever bumped
  std::vector<uint32_t> fresh_;    // the rows bumped since the last check
};

// --- phases --------------------------------------------------------------------

/// When every partition was resident again after a crash, as the
/// post-crash operations saw it.
struct Ready {
  int64_t cpu_ns = 0;          // HostCpuNs() at the first op that saw it
  uint64_t ondemand_v_ns = 0;  // set when an op's on-demand recovery
                               // brought the last partition back: its
                               // worker's virtual time after the op
};

/// Wraps every operation of a post-crash script with full-residency
/// probes. On-demand recovery runs inside operations and the sweep's
/// installs run between them, so an operation that starts below and ends
/// at ready_fraction == 1 recovered the last partition itself; otherwise
/// the sweep's last install did.
void AddReadyProbes(TxnScript* s, Ready* ready) {
  for (TxnOp& op : s->ops) {
    op = [op = std::move(op), ready](Database& db, Transaction* t) {
      auto resident = [&] {
        return db.recovery_progress().ready_fraction() >= 1.0;
      };
      if (ready->cpu_ns != 0) return op(db, t);
      if (resident()) {
        ready->cpu_ns = HostCpuNs();
        return op(db, t);
      }
      Status st = op(db, t);
      if (resident()) {
        ready->cpu_ns = HostCpuNs();
        ready->ondemand_v_ns = db.vnow();
      }
      return st;
    };
  }
}

/// Scripts between two CPU stamps of a phase whose laps are measured.
constexpr size_t kLapScripts = 500;

/// Stamps the CPU clock into `slot` when the script first starts.
void AddLapProbe(TxnScript* s, int64_t* slot) {
  s->ops[0] = [op = std::move(s->ops[0]), slot](Database& db, Transaction* t) {
    if (*slot == 0) *slot = HostCpuNs();
    return op(db, t);
  };
}

/// Observations of one executor phase.
struct Phase {
  uint64_t v_start = 0, v_end = 0;  // virtual ns
  double host_s = 0;  // CPU seconds of this thread in Run()
  uint64_t attempted = 0, committed = 0, failed = 0;
  uint64_t attempts = 0, aborted_attempts = 0;  // deadlock retries included
  uint64_t user_bytes = 0;
  uint64_t reader_waits = 0;
  uint64_t deadlock_retries = 0;
  uint64_t first_commit_ns = UINT64_MAX;
  std::vector<double> latency_ns;  // open loop: scheduled arrival -> commit
  uint64_t sched_events = 0;
  size_t sched_peak = 0;
  uint64_t last_sweep_install_ns = 0;
  Ready ready;
  /// With lap measurement on: the CPU clock at Run()'s start, as every
  /// kLapScripts-th script starts, and at Run()'s end.
  Stamps* laps = nullptr;
  std::vector<std::string> errors;
};

/// Runs `scripts` (with their metas) on one executor: a closed loop of
/// kWorkers clients when submitted together. `sweep` interleaves the
/// background recovery sweep (post-crash phases). With `arrivals`, each
/// commit's latency from its scheduled arrival is recorded.
Status RunScripts(Database* db, Workload* w, std::vector<TxnScript> scripts,
                  const std::vector<Meta>& metas, const char* span,
                  bool sweep, Phase* ph,
                  const std::vector<uint64_t>* arrivals = nullptr) {
  ConcurrentExecutor::Options eo;
  eo.background_sweep = sweep;
  // Clients retry deadlock victims until they commit.
  eo.max_deadlock_retries = 1000;
  ConcurrentExecutor ex(db, eo);
  std::vector<int64_t> marks;
  if (ph->laps != nullptr && !scripts.empty()) {
    marks.assign((scripts.size() - 1) / kLapScripts, 0);
  }
  for (size_t i = 0; i < scripts.size(); ++i) {
    TxnScript& s = scripts[i];
    if (sweep) AddReadyProbes(&s, &ph->ready);
    if (!marks.empty() && i > 0 && i % kLapScripts == 0) {
      AddLapProbe(&s, &marks[i / kLapScripts - 1]);
    }
    ex.Submit(std::move(s));
  }
  const int64_t h0 = HostCpuNs();
  Status st;
  {
    HostSpan s(span);
    st = ex.Run();
  }
  const int64_t h1 = HostCpuNs();
  ph->host_s += static_cast<double>(h1 - h0) * 1e-9;
  if (ph->laps != nullptr) {
    std::sort(marks.begin(), marks.end());
    ph->laps->push_back(h0);
    for (int64_t m : marks) {
      if (m != 0) ph->laps->push_back(m);
    }
    ph->laps->push_back(h1);
  }
  if (!st.ok()) return st;
  db->AdvanceClockTo(ex.completion_ns());
  ph->v_end = std::max(ph->v_end, ex.completion_ns());
  ph->sched_events += ex.scheduler_events_run();
  ph->sched_peak = std::max(ph->sched_peak, ex.scheduler_peak_depth());
  ph->last_sweep_install_ns =
      std::max(ph->last_sweep_install_ns, ex.last_sweep_install_ns());
  for (size_t i = 0; i < ex.results().size(); ++i) {
    const ScriptResult& r = ex.results()[i];
    const Meta& m = metas[i];
    ++ph->attempted;
    ph->deadlock_retries += r.deadlock_retries;
    ph->attempts += 1 + r.deadlock_retries;
    ph->aborted_attempts +=
        r.deadlock_retries + (r.outcome == ScriptOutcome::kCommitted ? 0 : 1);
    if (m.reader) ph->reader_waits += r.waits;
    if (r.outcome != ScriptOutcome::kCommitted) {
      ++ph->failed;
      if (ph->errors.size() < 3) ph->errors.push_back(r.error.ToString());
      continue;
    }
    ++ph->committed;
    ph->user_bytes += m.user_bytes;
    ph->first_commit_ns = std::min(ph->first_commit_ns, r.commit_ns);
    if (arrivals != nullptr) {
      const uint64_t from = (*arrivals)[i];
      ph->latency_ns.push_back(
          static_cast<double>(r.commit_ns > from ? r.commit_ns - from : 0));
    }
    w->Committed(m);
  }
  return Status::OK();
}

/// A closed-loop phase of `n` scripts from the workload's stream.
Status ClosedPhase(Database* db, Workload* w, size_t n, const char* span,
                   bool sweep, Phase* ph) {
  std::vector<TxnScript> scripts(n);
  std::vector<Meta> metas(n);
  for (size_t i = 0; i < n; ++i) metas[i] = w->Next(&scripts[i]);
  ph->v_start = db->now_ns();
  ph->v_end = ph->v_start;
  return RunScripts(db, w, std::move(scripts), metas, span, sweep, ph);
}

/// Open-loop release quantum: arrivals are released to a fresh executor
/// at the end of the quantum they fall in, or as soon as the previous
/// release has drained when the system runs behind (then the backlog
/// shows up as latency). Latency counts from the scheduled arrival.
constexpr uint64_t kReleaseQuantumNs = 100'000;

/// The rate ladder: rung k offers kLadderBase * 2^(k / kRungsPerOctave)
/// txn per virtual s (rungs 4.4% apart).
constexpr double kLadderBase = 5'000;
constexpr int kRungsPerOctave = 16;

double LadderRate(int k) {
  return kLadderBase * std::exp2(static_cast<double>(k) / kRungsPerOctave);
}

struct Rung {
  double offered = 0;
  double achieved = 0;  // committed per virtual s, first arrival to last commit
  double p50_us = 0;
  double p99_us = 0;
  size_t samples = 0;
  double backlog_us = 0;  // last commit minus last arrival
  double lag_max_us = 0;  // latest release minus arrival
  bool pass = false;
};

/// One ladder rate: `n` Poisson arrivals at `rate`, released in quanta.
/// `ph` is fresh for the rung. A rung passes when nothing fails and both
/// its p99 latency and its backlog are within the limit: a queue that
/// grows over the rung leaves a backlog at its end.
Status LadderRung(Database* db, Workload* w, double rate, size_t n,
                  uint64_t seed, Phase* ph, Rung* rung) {
  mmdb::bench::OpenLoopZipf src(seed, rate, 1, 0.0);
  const uint64_t base = db->now_ns();
  std::vector<uint64_t> at(n);
  for (uint64_t& a : at) a = base + src.NextArrivalNs();
  ph->v_start = base;
  ph->v_end = base;
  uint64_t last_commit = base;
  for (size_t i = 0; i < n;) {
    const uint64_t release =
        base + ((at[i] - base) / kReleaseQuantumNs + 1) * kReleaseQuantumNs;
    db->AdvanceClockTo(release);
    const uint64_t now = db->now_ns();
    size_t j = i;
    while (j < n && at[j] <= now) ++j;
    std::vector<TxnScript> scripts(j - i);
    std::vector<Meta> metas(j - i);
    std::vector<uint64_t> arrivals(at.begin() + static_cast<long>(i),
                                   at.begin() + static_cast<long>(j));
    for (size_t k = i; k < j; ++k) {
      metas[k - i] = w->Next(&scripts[k - i]);
      rung->lag_max_us =
          std::max(rung->lag_max_us, static_cast<double>(now - at[k]) / 1e3);
    }
    MMDB_RETURN_IF_ERROR(RunScripts(db, w, std::move(scripts), metas,
                                    "executor.Run.ladder", false, ph,
                                    &arrivals));
    last_commit = std::max(last_commit, db->now_ns());
    i = j;
  }
  const std::vector<double>& lat = ph->latency_ns;
  rung->offered = rate;
  rung->samples = lat.size();
  rung->p50_us = Percentile(lat, 0.5) / 1e3;
  rung->p99_us = Percentile(lat, 0.99) / 1e3;
  rung->backlog_us =
      static_cast<double>(last_commit > at.back() ? last_commit - at.back() : 0) /
      1e3;
  rung->achieved = Ratio(static_cast<double>(ph->committed),
                         static_cast<double>(last_commit - at.front()) / 1e9);
  const double limit = w->shape().slo_p99_us;
  rung->pass = ph->failed == 0 && rung->p99_us <= limit &&
               rung->backlog_us <= limit;
  return Status::OK();
}

// --- one epoch ----------------------------------------------------------------

struct CrashCycle {
  double host_recovery_s = 0;
  /// Crash(), the end of Restart(), the post-crash run's stamps before
  /// full residency, full residency.
  Stamps recovery_laps;
  double restart_host_s = 0;
  double post_run_host_s = 0;
  double restart_catalog_vms = 0;
  double restart_total_vms = 0;
  double catalog_partitions = 0;
  double first_commit_vms = 0;
  double downtime_vms = 0;
  double full_residency_vms = 0;
  double records_replayed_restart = 0;
  double ondemand_partitions = 0;
  double sweep_partitions = 0;
  double ondemand_records = 0;
  double log_pages_read = 0;
  double ckpt_pages_read = 0;
  double lane_busy_ns = 0;
  double lane_span_ns = 0;
};

struct Epoch {
  double setup_s = 0;
  Stamps setup_laps;   // BuildDatabase
  Stamps steady_laps;  // the steady phase's Run()
  double host_bytes_per_tuple_byte = 0;
  Phase steady;
  CounterSnap steady_before, steady_after;
  double main_instr = 0, recovery_instr = 0, log_busy_ms = 0;
  double ns_per_main_instr = 0, ns_per_recovery_instr = 0;
  // Sketches and histograms read before the first crash.
  double lock_wait_p99_ns = 0, queue_wait_p50_ns = 0, commit_fence_p99_ns = 0;
  double slb_peak_bytes = 0, checkpoint_p99_ns = 0;
  std::vector<Rung> rungs;
  std::vector<CrashCycle> cycles;
  double ondemand_p50_ns = 0, ondemand_p99_ns = 0;
  uint64_t attempted = 0, failed = 0, reader_waits = 0, deadlock_retries = 0;
  uint64_t attempts = 0, aborted_attempts = 0;
  int residency_unseen = 0;  // cycles whose residency no operation saw
  double prefix_wall_s = 0;  // wall time of setup, steady and crash cycles
  double prefix_peak_rss_mb = 0;  // the process's peak RSS at their end
  double fault_injected = 0;
};

double LogDiskBytes(const CounterSnap& b, const CounterSnap& a) {
  return Delta(b, a, "disk.log-a.bytes_written") +
         Delta(b, a, "disk.log-b.bytes_written");
}

void Account(const Phase& ph, Epoch* e, const char* what) {
  e->attempted += ph.attempted;
  e->failed += ph.failed;
  e->attempts += ph.attempts;
  e->aborted_attempts += ph.aborted_attempts;
  e->reader_waits += ph.reader_waits;
  e->deadlock_retries += ph.deadlock_retries;
  for (const std::string& err : ph.errors) {
    std::printf("note: %s script failed: %s\n", what, err.c_str());
  }
}

/// Setup: a fresh Database, the workload's relations and indexes, the
/// initial checkpoint. `laps` gets its CPU stamps.
Status BuildDatabase(Workload* w, const DatabaseOptions& opts, Stamps* laps,
                     std::unique_ptr<Database>* db) {
  laps->push_back(HostCpuNs());
  *db = std::make_unique<Database>(opts);
  HostSpan s("setup");
  g_setup_laps = laps;
  Status st = w->Setup(db->get());
  g_setup_laps = nullptr;
  MMDB_RETURN_IF_ERROR(st);
  laps->push_back(HostCpuNs());
  {
    HostSpan c("db.CheckpointEverything");
    MMDB_RETURN_IF_ERROR((*db)->CheckpointEverything());
  }
  laps->push_back(HostCpuNs());
  return Status::OK();
}

/// One epoch. `full`: the open-loop ladder runs after the crash cycles.
/// `engine_trace` non-empty: the engine's own virtual-clock tracer is on
/// and its Chrome trace is written there at the end.
Status RunEpoch(Workload* w, uint64_t seed, bool full,
                const std::string& engine_trace, Epoch* e, RunOutcome* out) {
  const int64_t wall0 = HostNowNs();
  w->Reset();
  g_ops = OpCounts{};
  const double rss0 = RssMb();
  DatabaseOptions opts = w->Options();
  opts.enable_tracing = !engine_trace.empty();
  std::unique_ptr<Database> db;
  MMDB_RETURN_IF_ERROR(BuildDatabase(w, opts, &e->setup_laps, &db));
  e->setup_s =
      static_cast<double>(e->setup_laps.back() - e->setup_laps.front()) * 1e-9;
  e->host_bytes_per_tuple_byte =
      Ratio((RssMb() - rss0) * 1048576.0,
            static_cast<double>(w->LoadedTupleBytes()));

  // Steady closed loop.
  const mmdb::obs::MetricsRegistry& reg = db->metrics();
  e->steady_before = Snapshot(reg);
  const double main0 = db->main_cpu().total_instructions();
  const double rec0 = db->recovery_cpu().total_instructions();
  const double busy0 = db->log_disks().primary().busy_ms_total();
  const Shape& shape = w->shape();
  e->steady.laps = &e->steady_laps;
  MMDB_RETURN_IF_ERROR(ClosedPhase(db.get(), w, shape.steady_txns,
                                   "executor.Run.steady", false, &e->steady));
  e->steady.laps = nullptr;
  e->steady_after = Snapshot(reg);
  e->main_instr = db->main_cpu().total_instructions() - main0;
  e->recovery_instr = db->recovery_cpu().total_instructions() - rec0;
  e->log_busy_ms = db->log_disks().primary().busy_ms_total() - busy0;
  e->ns_per_main_instr = db->main_cpu().ns_per_instruction();
  e->ns_per_recovery_instr = db->recovery_cpu().ns_per_instruction();
  auto sketch_p = [&](const char* name, double p) {
    const mmdb::obs::LogSketch* s = reg.find_sketch(name);
    return s != nullptr ? s->Percentile(p) : 0.0;
  };
  e->lock_wait_p99_ns = sketch_p("txn.sketch.lock_wait_ns", 0.99);
  e->queue_wait_p50_ns = sketch_p("txn.sketch.queue_wait_ns", 0.5);
  e->commit_fence_p99_ns = sketch_p("txn.sketch.commit_fence_ns", 0.99);
  if (const auto* h = reg.find_histogram("slb.occupancy_at_alloc_bytes")) {
    e->slb_peak_bytes = h->max();
  }
  if (const auto* h = reg.find_histogram("checkpoint.duration_ns")) {
    e->checkpoint_p99_ns = h->Percentile(0.99);
  }
  Account(e->steady, e, "steady");

  // Crash cycles.
  const mmdb::obs::CounterSeries* commits =
      reg.find_counter_series("txn.commit_rate");
  // Cycle 0 is a warm-up: the first crash after the steady phase recovers
  // long cold-partition chains that later cycles do not see. It is
  // checked but not reported.
  for (int c = 0; c <= shape.crash_cycles; ++c) {
    CrashCycle cc;
    // The crash lands after a seed-chosen share, 75-125%, of the cycle's
    // nominal pre-crash traffic.
    const double u = static_cast<double>(MixSeed(seed, 1000 + c) >> 11) /
                     9007199254740992.0;
    const auto n_pre =
        static_cast<size_t>(static_cast<double>(shape.cycle_before) *
                            (0.75 + 0.5 * u));
    Phase pre;
    MMDB_RETURN_IF_ERROR(
        ClosedPhase(db.get(), w, n_pre, "executor.Run.pre_crash", false, &pre));
    Account(pre, e, "pre-crash");
    const uint64_t crash_ns = db->now_ns();
    const CounterSnap before = Snapshot(reg);
    const double lane_busy0 =
        reg.find_histogram("recovery.lane_busy_ns") != nullptr
            ? reg.find_histogram("recovery.lane_busy_ns")->sum()
            : 0;
    const int64_t h_crash = HostCpuNs();
    {
      HostSpan s("db.Crash");
      db->Crash();
    }
    const int64_t h_restart = HostCpuNs();
    {
      HostSpan s("db.Restart");
      MMDB_RETURN_IF_ERROR(db->Restart());
    }
    cc.restart_host_s = HostCpuSecondsSince(h_restart);
    const mmdb::RestartReport& rr = db->last_restart();
    cc.restart_catalog_vms = rr.catalog_ms;
    cc.restart_total_vms = rr.total_ms;
    cc.catalog_partitions = static_cast<double>(rr.catalog_partitions);

    const int64_t h_restarted = HostCpuNs();
    Phase post;
    Stamps post_laps;
    post.laps = &post_laps;
    MMDB_RETURN_IF_ERROR(ClosedPhase(db.get(), w, shape.cycle_after,
                                     "executor.Run.post_crash", true, &post));
    Account(post, e, "post-crash");
    const int64_t h_done = HostCpuNs();
    // Host time: the first operation that saw full residency, or the end
    // of the post-crash run when none followed it.
    const bool seen = post.ready.cpu_ns != 0;
    if (!seen && c > 0) ++e->residency_unseen;
    const int64_t h_ready = seen ? post.ready.cpu_ns : h_done;
    cc.post_run_host_s = post.host_s;
    cc.host_recovery_s = static_cast<double>(h_ready - h_crash) * 1e-9;
    cc.recovery_laps = {h_crash, h_restarted};
    for (int64_t m : post_laps) {
      if (m < h_ready) cc.recovery_laps.push_back(m);
    }
    cc.recovery_laps.push_back(h_ready);
    const bool resident = db->recovery_progress().ready_fraction() >= 1.0;
    out->Check(resident, "crash cycle ended at ready_fraction " +
                             std::to_string(
                                 db->recovery_progress().ready_fraction()));
    cc.first_commit_vms =
        post.first_commit_ns != UINT64_MAX
            ? static_cast<double>(post.first_commit_ns - crash_ns) / 1e6
            : 0;
    // Virtual time: the on-demand recovery or the sweep install that
    // brought the last partition back (the crash itself when Restart left
    // nothing to recover).
    const uint64_t resident_ns =
        std::max(crash_ns, post.ready.ondemand_v_ns != 0
                               ? post.ready.ondemand_v_ns
                               : post.last_sweep_install_ns);
    cc.full_residency_vms = static_cast<double>(resident_ns - crash_ns) / 1e6;
    if (commits != nullptr) {
      cc.downtime_vms =
          static_cast<double>(mmdb::obs::AnalyzeRecoveryCurve(
                                  *commits, pre.v_start, crash_ns)
                                  .perceived_downtime_ns) /
          1e6;
    }
    const CounterSnap after = Snapshot(reg);
    cc.records_replayed_restart =
        Delta(before, after, "recovery.records_replayed.restart");
    cc.ondemand_partitions =
        Delta(before, after, "recovery.partitions_recovered.ondemand");
    cc.sweep_partitions =
        Delta(before, after, "recovery.partitions_recovered.background");
    cc.ondemand_records =
        Delta(before, after, "recovery.records_replayed.ondemand");
    cc.log_pages_read = Delta(before, after, "disk.log-a.pages_read") +
                        Delta(before, after, "disk.log-b.pages_read");
    cc.ckpt_pages_read = Delta(before, after, "disk.ckpt.pages_read");
    if (const auto* h = reg.find_histogram("recovery.lane_busy_ns")) {
      cc.lane_busy_ns = h->sum() - lane_busy0;
    }
    cc.lane_span_ns = static_cast<double>(resident_ns - crash_ns) *
                      static_cast<double>(kRecoveryLanes);
    if (c > 0) e->cycles.push_back(cc);
    w->Verify(db.get(), out, false);
  }
  e->prefix_wall_s = HostSecondsSince(wall0);
  e->prefix_peak_rss_mb = PeakRssMb();

  if (full) {
    // The open-loop ladder. A closed-loop settle phase first absorbs the
    // checkpoints the partitions recovered in the last crash cycle
    // trigger. Rung 0, the lowest rate, gives vlat_*. The scan then starts
    // at the workload's start rung and climbs one rung at a time until one
    // fails (or, should the start fail, descends until one passes), so no
    // rung runs behind an overloaded one except in that descent.
    auto run_rung = [&](int k, bool* pass) {
      Phase ph;
      Rung rung;
      Status st = LadderRung(db.get(), w, LadderRate(k),
                             k == 0 ? shape.latency_txns : shape.ladder_txns,
                             MixSeed(seed, 100 + static_cast<uint64_t>(k)),
                             &ph, &rung);
      Account(ph, e, "ladder");
      e->rungs.push_back(rung);
      *pass = rung.pass;
      return st;
    };
    Phase settle;
    MMDB_RETURN_IF_ERROR(ClosedPhase(db.get(), w, shape.ladder_txns,
                                     "executor.Run.settle", false, &settle));
    Account(settle, e, "settle");
    bool pass = false;
    MMDB_RETURN_IF_ERROR(run_rung(0, &pass));
    int k = static_cast<int>(std::lround(
        kRungsPerOctave * std::log2(shape.ladder_start / kLadderBase)));
    MMDB_RETURN_IF_ERROR(run_rung(k, &pass));
    const int step = pass ? 1 : -1;
    for (bool next = pass; next == pass && k + step >= 1;) {
      k += step;
      MMDB_RETURN_IF_ERROR(run_rung(k, &next));
    }
  }
  w->Verify(db.get(), out, true);

  if (const auto* h = reg.find_histogram("recovery.on_demand_ns")) {
    e->ondemand_p50_ns = h->Percentile(0.5);
    e->ondemand_p99_ns = h->Percentile(0.99);
  }
  e->fault_injected = static_cast<double>(reg.counter_value("fault.injected_total"));
  if (!engine_trace.empty()) {
    Status st = db->tracer().WriteJson(engine_trace);
    out->Check(st.ok(), "engine trace: " + st.ToString());
  }
  HostSpan s("teardown");
  db.reset();
  return Status::OK();
}

// --- reporting ------------------------------------------------------------------

template <typename F>
double MedianOf(const std::vector<CrashCycle>& cs, F f) {
  std::vector<double> v;
  for (const CrashCycle& c : cs) v.push_back(f(c));
  return Median(v);
}
/// Highest passing rung's achieved rate (0 when no rung passes).
double MaxRateAtSlo(const std::vector<Rung>& rungs) {
  const Rung* best = nullptr;
  for (const Rung& r : rungs) {
    if (r.pass && (best == nullptr || r.offered > best->offered)) best = &r;
  }
  return best != nullptr ? best->achieved : 0;
}

/// The virtual-clock end-to-end metrics of an epoch's steady phase and
/// crash cycles, which every epoch runs.
void PrefixMetrics(const Epoch& e, Metrics* m) {
  const Phase& s = e.steady;
  const double vspan_s = static_cast<double>(s.v_end - s.v_start) / 1e9;
  m->Set("vtxn_per_s", Ratio(static_cast<double>(s.committed), vspan_s), "1/s");
  // Mean, not median: the per-cycle value is spread evenly (where the
  // crash lands in the hot partitions' checkpoint cycles), and the mean
  // of such a sample is the steadier estimate.
  double first_commit = 0;
  for (const CrashCycle& c : e.cycles) first_commit += c.first_commit_vms;
  m->Set("first_commit_vms",
         Ratio(first_commit, static_cast<double>(e.cycles.size())), "ms");
  m->Set("perceived_downtime_vms",
         MedianOf(e.cycles, [](const CrashCycle& c) { return c.downtime_vms; }),
         "ms");
  m->Set("full_residency_vms",
         MedianOf(e.cycles, [](const CrashCycle& c) { return c.full_residency_vms; }),
         "ms");
  const double disk_bytes =
      LogDiskBytes(e.steady_before, e.steady_after) +
      Delta(e.steady_before, e.steady_after, "disk.ckpt.bytes_written");
  m->Set("storage_write_amp",
         Ratio(disk_bytes, static_cast<double>(s.user_bytes)), "ratio");
}

/// Every virtual-clock end-to-end metric of a full epoch.
void VirtualMetrics(const Epoch& e, Metrics* m) {
  PrefixMetrics(e, m);
  // Latency at the ladder's lightest rate, from scheduled arrival.
  m->Set("vlat_p50_us", e.rungs.front().p50_us, "us");
  m->Set("vlat_p99_us", e.rungs.front().p99_us, "us");
  m->Set("max_rate_at_slo_txn_per_s", MaxRateAtSlo(e.rungs), "1/s");
  m->Set("ok_frac",
         1.0 - Ratio(static_cast<double>(e.aborted_attempts),
                     static_cast<double>(e.attempts)),
         "ratio");
}

void LayerMetrics(const Epoch& e, const Epoch& first, Metrics* m) {
  const Phase& s = e.steady;
  const CounterSnap& b = e.steady_before;
  const CounterSnap& a = e.steady_after;
  const double txns = static_cast<double>(s.committed);
  const double vspan_ns = static_cast<double>(s.v_end - s.v_start);
  const HostTracer& tr = Tracer();
  auto p50 = [&](const char* span) { return Median(tr.Durations(span)); };

  m->Set("txn.lock_acquisitions_per_txn", Ratio(Delta(b, a, "lock.acquisitions"), txns), "count");
  m->Set("txn.lock_waits_per_ktxn", Ratio(Delta(b, a, "txn.waits") * 1e3, txns), "count");
  m->Set("txn.lock_wait_vus_p99", e.lock_wait_p99_ns / 1e3, "us");
  m->Set("txn.deadlock_retries", static_cast<double>(e.deadlock_retries), "count");
  m->Set("txn.queue_wait_vus_p50", e.queue_wait_p50_ns / 1e3, "us");
  m->Set("txn.read_host_ns_p50", p50("db.Read"), "ns");
  m->Set("txn.update_host_ns_p50", p50("db.Update"), "ns");
  m->Set("txn.insert_host_ns_p50", p50("db.Insert"), "ns");
  m->Set("txn.executor_self_host_s", tr.SelfNs("executor.Run.steady") / 1e9, "s");

  m->Set("log.slb_bytes_per_txn", Ratio(Delta(b, a, "slb.bytes_appended"), txns), "B");
  m->Set("log.pages_flushed_per_ktxn", Ratio(Delta(b, a, "log.pages_flushed") * 1e3, txns), "count");
  m->Set("log.disk_bytes_written_per_txn", Ratio(LogDiskBytes(b, a), txns), "B");
  m->Set("log.commit_wait_vus_p99", e.commit_fence_p99_ns / 1e3, "us");
  m->Set("log.slb_occupancy_peak_bytes", e.slb_peak_bytes, "B");
  m->Set("log.disk_write_busy_frac", Ratio(e.log_busy_ms * 1e6, vspan_ns), "ratio");

  m->Set("recovery.cpu_busy_frac",
         Ratio(e.recovery_instr * e.ns_per_recovery_instr, vspan_ns), "ratio");
  m->Set("recovery.records_sorted_per_txn", Ratio(Delta(b, a, "recovery.records_sorted"), txns), "count");
  m->Set("recovery.checkpoints_per_ktxn", Ratio(Delta(b, a, "checkpoint.completed") * 1e3, txns), "count");
  m->Set("recovery.ckpt_bytes_written_per_txn",
         Ratio(Delta(b, a, "disk.ckpt.bytes_written"), txns), "B");
  m->Set("recovery.checkpoint_vms_p99", e.checkpoint_p99_ns / 1e6, "ms");
  const auto& cs = e.cycles;
  m->Set("recovery.restart_host_s", MedianOf(cs, [](const CrashCycle& c) { return c.restart_host_s; }), "s");
  m->Set("recovery.restart_catalog_vms",
         MedianOf(cs, [](const CrashCycle& c) { return c.restart_catalog_vms; }), "ms");
  m->Set("recovery.restart_total_vms", MedianOf(cs, [](const CrashCycle& c) { return c.restart_total_vms; }), "ms");
  m->Set("recovery.records_replayed_restart",
         MedianOf(cs, [](const CrashCycle& c) { return c.records_replayed_restart; }), "count");

  m->Set("core.ondemand_partitions", MedianOf(cs, [](const CrashCycle& c) { return c.ondemand_partitions; }), "count");
  m->Set("core.ondemand_vms_p50", e.ondemand_p50_ns / 1e6, "ms");
  m->Set("core.ondemand_vms_p99", e.ondemand_p99_ns / 1e6, "ms");
  m->Set("core.ondemand_records_per_partition",
         MedianOf(cs, [](const CrashCycle& c) { return Ratio(c.ondemand_records, c.ondemand_partitions); }),
         "count");
  m->Set("core.ondemand_log_pages_per_partition",
         MedianOf(cs, [](const CrashCycle& c) {
           return Ratio(c.log_pages_read, c.ondemand_partitions + c.sweep_partitions);
         }),
         "count");
  m->Set("core.sweep_partitions", MedianOf(cs, [](const CrashCycle& c) { return c.sweep_partitions; }), "count");
  m->Set("core.lane_busy_frac", MedianOf(cs, [](const CrashCycle& c) { return Ratio(c.lane_busy_ns, c.lane_span_ns); }),
         "ratio");
  m->Set("core.ckpt_pages_read_per_partition",
         MedianOf(cs, [](const CrashCycle& c) {
           return Ratio(c.ckpt_pages_read, c.ondemand_partitions + c.sweep_partitions);
         }),
         "count");
  m->Set("core.post_crash_run_host_s", MedianOf(cs, [](const CrashCycle& c) { return c.post_run_host_s; }), "s");
  m->Set("core.mvcc_versions_live_peak", static_cast<double>(g_ops.versions_live_peak), "count");
  m->Set("core.mvcc_pruned_per_ktxn", Ratio(Delta(b, a, "mvcc.pruned_total") * 1e3, txns), "count");
  m->Set("core.reader_lock_waits", static_cast<double>(e.reader_waits), "count");

  m->Set("index.hash_lookup_host_ns_p50", p50("db.IndexLookup"), "ns");
  m->Set("index.hash_lookup_host_ns_p99", Percentile(tr.Durations("db.IndexLookup"), 0.99), "ns");
  m->Set("index.ttree_range_host_us_p50", p50("db.IndexRange") / 1e3, "us");
  m->Set("index.range_entries_per_call",
         Ratio(static_cast<double>(g_ops.range_entries), static_cast<double>(g_ops.ranges)), "count");
  m->Set("index.lookup_hit_frac",
         Ratio(static_cast<double>(g_ops.lookup_hits), static_cast<double>(g_ops.lookups)), "ratio");

  m->Set("storage.insert_host_ns_p50", p50("populate.batch") / 100.0, "ns");
  m->Set("storage.scan_host_ms_p50", p50("db.Scan") / 1e6, "ms");
  m->Set("storage.host_bytes_per_tuple_byte", first.host_bytes_per_tuple_byte, "ratio");

  double create_index_ns = 0;
  for (double d : tr.Durations("db.CreateIndex")) create_index_ns += d;
  m->Set("catalog.create_index_host_s", create_index_ns / 1e9, "s");
  m->Set("catalog.partitions_at_restart",
         MedianOf(cs, [](const CrashCycle& c) { return c.catalog_partitions; }), "count");

  m->Set("sim.sched_events_per_txn", Ratio(static_cast<double>(s.sched_events), txns), "count");
  m->Set("sim.sched_peak_depth", static_cast<double>(s.sched_peak), "count");
  m->Set("sim.main_cpu_busy_frac",
         Ratio(e.main_instr * e.ns_per_main_instr, vspan_ns * kWorkers), "ratio");
  double lag = 0;
  for (const Rung& r : e.rungs) lag = std::max(lag, r.lag_max_us);
  m->Set("txn.ladder_lag_vus_max", lag, "us");
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "tp1_steady") return std::make_unique<Tp1Steady>(seed);
  if (name == "read_mostly_mvcc") return std::make_unique<ReadMostly>(seed);
  if (name == "crash_ondemand") return std::make_unique<CrashOnDemand>(seed);
  return nullptr;
}

/// Host seconds of the measured phases of an epoch (for the tracing
/// overhead): everything but setup.
double MeasuredHostS(const Epoch& e) {
  double s = e.steady.host_s;
  for (const CrashCycle& c : e.cycles) s += c.restart_host_s + c.post_run_host_s;
  return s;
}

}  // namespace

bool IsSingleDbWorkload(const std::string& name) {
  return MakeWorkload(name, 1) != nullptr;
}

Status RunSingleDb(const RunArgs& args, RunOutcome* out) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  const int64_t t0 = HostNowNs();
  std::vector<Epoch> epochs;
  std::vector<Stamps> extra_setups;
  std::string fingerprint;
  // Trace mode: one untraced epoch (the overhead base), then one traced,
  // both full. Otherwise the first epoch is full and the later ones stop
  // after the crash cycles: they repeat the work the host-clock metrics
  // time, and the virtual-clock metrics of that part must come out
  // byte-identical.
  const size_t trace_epochs = 2;
  for (;;) {
    const bool full = epochs.empty() || args.trace;
    const bool traced = args.trace && epochs.size() + 1 == trace_epochs;
    Tracer().Clear();
    Tracer().set_enabled(traced);
    Epoch e;
    const std::string engine_trace =
        traced ? args.out_dir + "/vtrace_" + args.workload + ".json" : "";
    Status st = RunEpoch(w.get(), args.seed, full, engine_trace, &e, out);
    Tracer().set_enabled(false);
    if (!st.ok()) return st;
    out->attempted += e.attempted;
    out->failed += e.failed;
    out->Check(e.fault_injected == 0, "fault.injected_total != 0");
    out->Check(e.reader_waits == 0,
               std::to_string(e.reader_waits) + " snapshot-reader lock waits");
    out->Check(!full || e.rungs.front().samples >= 1000,
               "fewer than 1000 latency samples");
    Metrics v;
    PrefixMetrics(e, &v);
    const std::string fp = v.ToJson();
    if (fingerprint.empty()) fingerprint = fp;
    out->Check(fp == fingerprint,
               "virtual-clock metrics differ between epochs of one seed");
    std::printf("epoch %zu: %.1f s before the ladder, setup %.3f cpu-s, "
                "steady %.3f cpu-s (%.0f txn/s), "
                "recovery %.4f cpu-s, %zu rungs, %zu crash cycles "
                "(%d with residency after the last operation)\n",
                epochs.size(), e.prefix_wall_s, e.setup_s, e.steady.host_s,
                Ratio(static_cast<double>(e.steady.committed), e.steady.host_s),
                MedianOf(e.cycles, [](const CrashCycle& c) { return c.host_recovery_s; }),
                e.rungs.size(), e.cycles.size(), e.residency_unseen);
    for (const Rung& r : e.rungs) {
      std::printf("  rung %8.0f/s: achieved %8.0f/s p50 %9.1f us p99 %9.1f us"
                  " (%zu samples) backlog %9.1f us %s\n",
                  r.offered, r.achieved, r.p50_us, r.p99_us, r.samples,
                  r.backlog_us, r.pass ? "pass" : "FAIL");
    }
    epochs.push_back(std::move(e));
    const int64_t extras0 = HostNowNs();
    for (int i = 0; !args.trace && i < w->shape().extra_setups; ++i) {
      std::unique_ptr<Database> db;
      extra_setups.emplace_back();
      MMDB_RETURN_IF_ERROR(
          BuildDatabase(w.get(), w->Options(), &extra_setups.back(), &db));
    }
    // Untraced: go on while one more epoch without the ladder, as long as
    // the last one's part before the ladder plus its extra setups, still
    // ends within the budget.
    const double next_s =
        epochs.back().prefix_wall_s + HostSecondsSince(extras0);
    if (args.trace ? epochs.size() == trace_epochs
                   : HostSecondsSince(t0) + next_s > args.seconds) {
      break;
    }
  }

  if (args.trace) {
    const Epoch& traced = epochs.back();
    LayerMetrics(traced, epochs.front(), &out->layer);
    out->layer.Set("obs.trace_overhead_frac",
                   Ratio(MeasuredHostS(traced), MeasuredHostS(epochs.front())) - 1.0,
                   "ratio");
    const std::string path =
        args.out_dir + "/trace_" + args.workload + ".json";
    out->Check(Tracer().WriteChrome(path, 200'000), "cannot write " + path);
    std::printf("host trace: %s (%zu spans)\n", path.c_str(),
                Tracer().span_count());
    Tracer().Clear();
    return Status::OK();
  }

  // Host figures, lap by lap over the run's epochs (LapwiseSeconds):
  // setup_s takes each setup lap's median, so that work moved into setup
  // shows in full. The steady rate and the recovery time take each lap's
  // fastest epoch: other load on the machine only ever slows this
  // thread's CPU time down (shared cores, caches, memory bandwidth), so
  // the fastest pass over an identical piece of work is the steadiest
  // estimate of what the engine costs.
  VirtualMetrics(epochs.front(), &out->e2e);
  std::vector<const Stamps*> setup, steady;
  for (const Epoch& e : epochs) {
    setup.push_back(&e.setup_laps);
    steady.push_back(&e.steady_laps);
  }
  for (const Stamps& s : extra_setups) setup.push_back(&s);
  std::vector<double> recovery;
  for (size_t c = 0; c < epochs.front().cycles.size(); ++c) {
    std::vector<const Stamps*> cycle;
    for (const Epoch& e : epochs) cycle.push_back(&e.cycles[c].recovery_laps);
    recovery.push_back(LapwiseSeconds(cycle, 0));
  }
  out->e2e.Set("setup_s", LapwiseSeconds(setup, 0.5), "s");
  // Peak RSS before the first ladder: how many rungs the ladder runs,
  // and so how far the database grows in it, depends on the seed.
  out->e2e.Set("peak_rss_mb", epochs.front().prefix_peak_rss_mb, "MB");
  out->e2e.Set("host_txn_per_s",
               Ratio(static_cast<double>(epochs.front().steady.committed),
                     LapwiseSeconds(steady, 0)),
               "1/s");
  out->e2e.Set("host_recovery_s", Median(recovery), "s");
  std::printf("epochs: %zu, latency samples per epoch: %zu\n", epochs.size(),
              epochs.front().rungs.front().samples);
  return Status::OK();
}

}  // namespace perfbench
