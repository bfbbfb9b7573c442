// CRC-32 throughput: host bytes per second of the four checksum bodies
// behind every simulated page transfer.
//
// Every page the simulated disks write or read back is checksummed
// whole (device CRC on write and on read, log-page content CRC, catalog
// root CRC), so checksum speed is a direct share of restart's host time:
// a crash cycle of perfbench's crash_ondemand reads ~9.4k pages. This
// bench times, on the same buffers:
//
//   reference — Crc32Reference, byte-at-a-time (the equivalence oracle);
//   slicing   — slicing-by-16 tables, the portable path;
//   clmul     — the 128-bit PCLMULQDQ folding kernel plus slicing tail,
//               the path Crc32() takes on x86-64 CPUs with PCLMULQDQ and
//               SSE4.1 but no VPCLMULQDQ/AVX-512 (skipped elsewhere);
//   wide      — the 512-bit VPCLMULQDQ kernel (256 bytes per step) with
//               the 128-bit kernel below 256 bytes, the path Crc32()
//               takes on CPUs with VPCLMULQDQ, AVX512F/VL/BW (skipped
//               elsewhere).
//
// Sizes: 64 B (the 128-bit kernel's smallest input; the wide body runs
// the 128-bit kernel there), 8 KiB (one log or checkpoint page) and
// 48 KiB (one six-page checkpoint track).
//
// Host rates are machine-local, so the report carries them in its
// "host" section as info only: there is no baseline and no gate.
// Writes BENCH_crc32.json in the working directory.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/export.h"
#include "util/crc32.h"
#include "util/crc32_internal.h"
#include "util/random.h"

namespace mmdb::bench {
namespace {

using CrcFn = uint32_t (*)(const void*, size_t, uint32_t);

struct Body {
  const char* name;
  CrcFn crc;
  bool available;
};

struct Size {
  const char* label;
  size_t bytes;
};

constexpr Size kSizes[] = {
    {"64B", 64}, {"8KiB", 8 * 1024}, {"48KiB", 48 * 1024}};

const std::vector<uint8_t>& Buffer() {
  static const std::vector<uint8_t> kBuf = [] {
    Random rng(32);
    std::vector<uint8_t> b(48 * 1024);
    for (auto& x : b) x = static_cast<uint8_t>(rng.Uniform(256));
    return b;
  }();
  return kBuf;
}

void RunCrc(benchmark::State& state, const Body& body, size_t bytes) {
  if (!body.available) {
    state.SkipWithError("kernel unavailable on this target or CPU");
    return;
  }
  const uint8_t* p = Buffer().data();
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = body.crc(p, bytes, crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}

// Prints the usual console table and keeps each run's bytes/s by
// benchmark name for the JSON report.
class RateCollector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      auto it = run.counters.find("bytes_per_second");
      if (run.run_type == Run::RT_Iteration && it != run.counters.end()) {
        rates_[run.benchmark_name()] = it->second.value;
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }
  const std::map<std::string, double>& rates() const { return rates_; }

 private:
  std::map<std::string, double> rates_;
};

}  // namespace
}  // namespace mmdb::bench

int main(int argc, char** argv) {
  using namespace mmdb::bench;
  ::benchmark::Initialize(&argc, argv);
  const bool kernel = mmdb::crc32_internal::HasClmulKernel();
  const bool wide = mmdb::crc32_internal::HasWideClmulKernel();
  const Body bodies[] = {
      {"reference", &mmdb::Crc32Reference, true},
      {"slicing", &mmdb::crc32_internal::SlicingCrc32, true},
      {"clmul", &mmdb::crc32_internal::ClmulCrc32, kernel},
      {"wide", &mmdb::crc32_internal::WideClmulCrc32, wide},
  };
  for (const Body& body : bodies) {
    for (const Size& size : kSizes) {
      std::string name = std::string(body.name) + "/" + size.label;
      ::benchmark::RegisterBenchmark(
          name.c_str(), [body, size](benchmark::State& state) {
            RunCrc(state, body, size.bytes);
          });
    }
  }
  RateCollector collector;
  ::benchmark::RunSpecifiedBenchmarks(&collector);

  mmdb::obs::JsonValue host;
  host["clmul_kernel"] = kernel;
  host["wide_clmul_kernel"] = wide;
  std::printf("\n  %-10s %8s %12s\n", "body", "size", "1e9 B/s");
  for (const Body& body : bodies) {
    for (const Size& size : kSizes) {
      auto it = collector.rates().find(std::string(body.name) + "/" +
                                       size.label);
      if (it == collector.rates().end()) continue;
      std::printf("  %-10s %8s %12.2f\n", body.name, size.label,
                  it->second / 1e9);
      host[std::string(body.name) + "_" + size.label + "_bytes_per_s"] =
          it->second;
    }
  }
  mmdb::obs::BenchReport report("crc32");
  report.Set("host", std::move(host));
  (void)report.Write();
  return 0;
}
