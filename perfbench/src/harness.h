// Shared plumbing of the two-clock benchmark: host-clock spans recorded
// from outside the engine, exact percentiles, registry snapshots, process
// memory readings and the result line.
//
// Every span is opened by benchmark code around one call into a public
// engine function (an op closure, ConcurrentExecutor::Run, Crash,
// Restart, CheckpointEverything, a populate batch, CreateIndex). Spans
// nest through a stack, so each records the span
// that caused it; spans of one transaction share its id.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double HostSecondsSince(int64_t t0_ns) {
  return static_cast<double>(HostNowNs() - t0_ns) * 1e-9;
}

/// CPU time of the calling thread (ns). The engine runs on this one
/// thread, so the end-to-end host figures use this clock: time the
/// process spends descheduled by other load on the machine is not
/// engine time.
inline int64_t HostCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline double HostCpuSecondsSince(int64_t t0_ns) {
  return static_cast<double>(HostCpuNs() - t0_ns) * 1e-9;
}

/// Derives an independent generator seed for stream `salt` of a run
/// seed (splitmix64 finalizer), so every input is a function of --seed.
inline uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Host spans.

class HostTracer {
 public:
  struct Span {
    uint32_t name;
    int32_t parent;  // index of the parent span, -1 at the root
    uint64_t txn;    // engine transaction id, 0 outside transactions
    int64_t start_ns;
    int64_t end_ns;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int32_t Open(const char* name, uint64_t txn) {
    Span s{Intern(name), stack_.empty() ? -1 : stack_.back(), txn,
           HostNowNs(), 0};
    spans_.push_back(s);
    const auto id = static_cast<int32_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }
  void Close(int32_t id) {
    spans_[static_cast<size_t>(id)].end_ns = HostNowNs();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  size_t span_count() const { return spans_.size(); }

  /// Durations (ns) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    auto it = ids_.find(name);
    if (it == ids_.end()) return out;
    for (const Span& s : spans_) {
      if (s.name == it->second) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
    return out;
  }

  /// Self time of every span called `name`, summed (ns): its duration
  /// minus the part its direct children cover.
  double SelfNs(const std::string& name) const {
    auto it = ids_.find(name);
    if (it == ids_.end()) return 0;
    std::vector<int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    double self = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.name == it->second) {
        self += static_cast<double>(s.end_ns - s.start_ns - child[i]);
      }
    }
    return self;
  }

  /// Writes the first `cap` spans as one Chrome trace (host microseconds
  /// relative to the first span). Returns false on an I/O error.
  bool WriteChrome(const std::string& path, size_t cap) const {
    std::ofstream f(path);
    if (!f) return false;
    const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    const size_t n = std::min(cap, spans_.size());
    char buf[320];
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\","
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"txn\":%llu}}",
                    i == 0 ? "" : ",\n", names_[s.name].c_str(),
                    static_cast<double>(s.start_ns - base) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                    s.parent, static_cast<unsigned long long>(s.txn));
      f << buf;
    }
    f << "]}\n";
    return static_cast<bool>(f);
  }

  void Clear() {
    spans_.clear();
    stack_.clear();
  }

 private:
  uint32_t Intern(const char* name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<uint32_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(name, id);
    return id;
  }

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  std::vector<std::string> names_;
  std::map<std::string, uint32_t> ids_;
};

inline HostTracer& Tracer() {
  static HostTracer tracer;
  return tracer;
}

/// RAII host span; a single branch when tracing is off.
class HostSpan {
 public:
  explicit HostSpan(const char* name, uint64_t txn = 0)
      : id_(Tracer().enabled() ? Tracer().Open(name, txn) : -1) {}
  ~HostSpan() {
    if (id_ >= 0) Tracer().Close(id_);
  }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;

 private:
  int32_t id_;
};

// ---------------------------------------------------------------------------
// Statistics.

/// Exact percentile by linear interpolation between closest ranks
/// (`p` in [0, 1]); 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

inline double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// CPU-time stamps (HostCpuNs) taken at points of a piece of work that
/// every epoch of a run repeats identically and passes in the same order;
/// the gaps between successive stamps are the work's laps.
using Stamps = std::vector<int64_t>;

/// CPU seconds of one piece of work from its stamps in every epoch: each
/// lap's `q`-quantile over the epochs (0 the fastest, 0.5 the median),
/// summed over the laps. A spell of other load on the machine slows the
/// laps of the epoch it falls in, not the same laps of every epoch, so
/// this is steadier than the same quantile of the epochs' totals. Should
/// the epochs disagree on the number of stamps, it falls back to that.
inline double LapwiseSeconds(const std::vector<const Stamps*>& epochs,
                             double q) {
  if (epochs.empty() || epochs.front()->size() < 2) return 0;
  const size_t n = epochs.front()->size();
  bool aligned = true;
  for (const Stamps* s : epochs) aligned = aligned && s->size() == n;
  std::vector<double> v;
  if (!aligned) {
    for (const Stamps* s : epochs) {
      v.push_back(static_cast<double>(s->back() - s->front()));
    }
    return Percentile(v, q) * 1e-9;
  }
  double sum_ns = 0;
  for (size_t i = 1; i < n; ++i) {
    v.clear();
    for (const Stamps* s : epochs) {
      v.push_back(static_cast<double>((*s)[i] - (*s)[i - 1]));
    }
    sum_ns += Percentile(v, q);
  }
  return sum_ns * 1e-9;
}

/// Every counter of a registry, by name, at one instant.
using CounterSnap = std::map<std::string, uint64_t>;

inline CounterSnap Snapshot(const mmdb::obs::MetricsRegistry& reg) {
  CounterSnap snap;
  reg.ForEachCounter([&](const std::string& name, const mmdb::obs::Counter& c) {
    snap[name] = c.value();
  });
  return snap;
}

/// Counter growth between two snapshots (0 for unknown names). Volatile
/// counters reset at Crash(); callers take deltas within one crash epoch.
inline double Delta(const CounterSnap& before, const CounterSnap& after,
                    const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  auto b = before.find(name);
  const uint64_t base = b == before.end() ? 0 : b->second;
  return a->second >= base ? static_cast<double>(a->second - base) : 0;
}

// ---------------------------------------------------------------------------
// Process memory (Linux /proc).

/// A "VmXXX:" field of /proc/self/status in MiB (0 when unavailable).
inline double ProcStatusMb(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(f, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}
inline double PeakRssMb() { return ProcStatusMb("VmHWM"); }
inline double RssMb() { return ProcStatusMb("VmRSS"); }

// ---------------------------------------------------------------------------
// Results.

/// Named metrics of one run, in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  bool Has(const std::string& name) const {
    for (const auto& m : items_) {
      if (m.name == name) return true;
    }
    return false;
  }
  double Get(const std::string& name) const {
    for (const auto& m : items_) {
      if (m.name == name) return m.value;
    }
    return 0;
  }

  /// {"name": {"value": v, "unit": "u"}, ...} with every digit kept.
  std::string ToJson() const {
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < items_.size(); ++i) {
      const double v = std::isfinite(items_[i].value) ? items_[i].value : 0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

  /// Human-readable table on stdout (before the result line).
  void Print() const {
    for (const auto& m : items_) {
      std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// What every workload hands back to main().
struct RunOutcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  Metrics e2e;    // untraced measurement
  Metrics layer;  // traced measurement

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      ++failed;
      check_failures.push_back(what);
    }
  }
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
