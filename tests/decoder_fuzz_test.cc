// Seeded mutation tests for the decoders that read stored bytes: log
// records (alone and as streams, with and without epoch frames), the
// Stable Log Buffer's record pop, T-Tree and hash-bucket nodes, and
// tuples. Valid encodings are mutated by byte flips, truncations and
// inflated length fields; every mutant must decode to Corruption or to a
// value whose borrowed spans lie inside the input. Out-of-bounds reads
// that the span checks cannot see are left to the ASan/UBSan build.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "index/node_format.h"
#include "log/log_disk.h"
#include "log/log_record.h"
#include "log/slb.h"
#include "sim/stable_memory.h"
#include "test_util.h"
#include "util/random.h"

namespace mmdb {
namespace {

constexpr int kSeeds = 3;
constexpr int kMutantsPerInput = 2000;

/// A little-endian length field of a valid encoding: where it sits and
/// how wide it is, so a mutation can inflate it past the input's end.
struct LengthField {
  size_t offset;
  size_t width;
};

struct Sample {
  std::vector<uint8_t> bytes;
  std::vector<LengthField> lengths;
};

// Compared as addresses: a span past its input is not part of the same
// array, so pointer comparison would not be defined for it.
bool Inside(std::span<const uint8_t> part, std::span<const uint8_t> whole) {
  if (part.empty()) return true;
  const auto begin = reinterpret_cast<uintptr_t>(whole.data());
  const auto at = reinterpret_cast<uintptr_t>(part.data());
  return at >= begin && at - begin <= whole.size() &&
         part.size() <= whole.size() - (at - begin);
}

/// One mutant of `s`: a flip of 1..4 random bytes, a truncation, or an
/// inflated length field (when the sample has one).
std::vector<uint8_t> Mutate(const Sample& s, Random* rng) {
  std::vector<uint8_t> b = s.bytes;
  switch (rng->Uniform(3)) {
    case 0: {
      if (b.empty()) break;
      uint64_t flips = 1 + rng->Uniform(4);
      for (uint64_t i = 0; i < flips; ++i) {
        b[rng->Uniform(b.size())] ^= static_cast<uint8_t>(1 + rng->Uniform(255));
      }
      break;
    }
    case 1:
      b.resize(rng->Uniform(b.size() + 1));
      break;
    case 2: {
      if (s.lengths.empty()) {
        b.resize(rng->Uniform(b.size() + 1));
        break;
      }
      const LengthField& f = s.lengths[rng->Uniform(s.lengths.size())];
      // Past the end by a little or by the field's whole range.
      uint64_t v = rng->Bernoulli(0.5) ? b.size() + rng->Uniform(64)
                                       : ~uint64_t{0};
      for (size_t i = 0; i < f.width && f.offset + i < b.size(); ++i) {
        b[f.offset + i] = static_cast<uint8_t>(v >> (8 * i));
      }
      break;
    }
  }
  return b;
}

/// Runs `check` on every mutant of every sample, for each seed.
template <typename Check>
void ForEachMutant(const std::vector<Sample>& samples, Check check) {
  for (int seed = 1; seed <= kSeeds; ++seed) {
    Random rng(static_cast<uint64_t>(seed) * 7919);
    for (const Sample& s : samples) {
      for (int m = 0; m < kMutantsPerInput; ++m) {
        std::vector<uint8_t> mutant = Mutate(s, &rng);
        SCOPED_TRACE("seed " + std::to_string(seed) + " mutant " +
                     std::to_string(m));
        check(mutant);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// Offset of the u16 payload length in an insert/update record.
constexpr size_t kPayloadLenOffset = LogRecord::kHeaderBytes;

std::vector<LogRecord> SampleRecords() {
  std::vector<LogRecord> recs;
  LogRecord ins;
  ins.op = LogOp::kInsert;
  ins.bin_index = 3;
  ins.txn_id = 77;
  ins.partition = {2, 5};
  ins.slot = 9;
  ins.data = testing::FilledBytes(48, 4);
  recs.push_back(ins);
  LogRecord upd = ins;
  upd.op = LogOp::kUpdate;
  upd.data = testing::FilledBytes(300, 8);
  recs.push_back(upd);
  LogRecord del = ins;
  del.op = LogOp::kDelete;
  del.data.clear();
  recs.push_back(del);
  LogRecord node = ins;
  node.op = LogOp::kNodeInsertEntry;
  node.data.clear();
  node.key = -12;
  node.child = EntityAddr{{4, 1}, 6};
  recs.push_back(node);
  node.op = LogOp::kNodeRemoveEntry;
  recs.push_back(node);
  return recs;
}

/// Serializes `recs` back to back, each behind an epoch frame when
/// `framed`, and records where every payload length field sits.
Sample EncodeStream(const std::vector<LogRecord>& recs, bool framed) {
  Sample s;
  uint64_t csn = 1;
  for (const LogRecord& r : recs) {
    if (framed) {
      wire::PutU32(&s.bytes, 2);
      wire::PutU64(&s.bytes, csn++);
    }
    size_t at = s.bytes.size();
    r.AppendTo(&s.bytes);
    if (r.op == LogOp::kInsert || r.op == LogOp::kUpdate) {
      s.lengths.push_back({at + kPayloadLenOffset, 2});
    }
  }
  return s;
}

TEST(DecoderFuzzTest, LogRecordViewStaysInsideItsInput) {
  std::vector<Sample> samples;
  for (bool framed : {false, true}) {
    for (const LogRecord& r : SampleRecords()) {
      samples.push_back(EncodeStream({r}, framed));
    }
  }
  ForEachMutant(samples, [](const std::vector<uint8_t>& in) {
    for (bool framed : {false, true}) {
      wire::Reader r(in);
      auto v = ParseLogRecordView(&r, framed);
      if (!v.ok()) {
        ASSERT_TRUE(v.status().IsCorruption()) << v.status().ToString();
        continue;
      }
      ASSERT_TRUE(Inside(v.value().data, in));
      ASSERT_TRUE(Inside(v.value().stored, in));
      ASSERT_EQ(v.value().stored.size(), r.pos());
      ASSERT_EQ(v.value().stored.data(), in.data());
    }
  });
}

TEST(DecoderFuzzTest, LogStreamStaysInsideItsInput) {
  std::vector<Sample> samples;
  for (bool framed : {false, true}) {
    samples.push_back(EncodeStream(SampleRecords(), framed));
  }
  ForEachMutant(samples, [](const std::vector<uint8_t>& in) {
    for (bool framed : {false, true}) {
      std::vector<LogRecordView> views;
      Status st = ParseLogStream(in, &views, framed);
      if (!st.ok()) {
        ASSERT_TRUE(st.IsCorruption()) << st.ToString();
        continue;
      }
      // The views tile the input: each starts where the last one ended.
      const uint8_t* next = in.data();
      for (const LogRecordView& v : views) {
        ASSERT_TRUE(Inside(v.data, in));
        ASSERT_TRUE(Inside(v.stored, in));
        ASSERT_EQ(v.stored.data(), next);
        next = v.stored.data() + v.stored.size();
      }
      ASSERT_EQ(next, in.data() + in.size());
    }
  });
}

TEST(DecoderFuzzTest, SlbPopCopiesExactlyTheStoredBytes) {
  // The SLB holds bytes it serialized itself, so its pop is driven with
  // seeded records of every op and size (up to oversized blocks) and with
  // invalid op codes, which must surface as Corruption.
  for (bool framed : {false, true}) {
    for (int seed = 1; seed <= kSeeds; ++seed) {
      SCOPED_TRACE("framed " + std::to_string(framed) + " seed " +
                   std::to_string(seed));
      Random rng(static_cast<uint64_t>(seed));
      sim::StableMemoryMeter meter(1 << 22);
      StableLogBuffer slb(StableLogBuffer::Config{256, 1 << 22}, &meter);
      std::vector<LogRecord> appended;
      for (uint64_t txn = 1; txn <= 40; ++txn) {
        uint64_t n = 1 + rng.Uniform(5);
        for (uint64_t i = 0; i < n; ++i) {
          LogRecord r = SampleRecords()[rng.Uniform(5)];
          r.txn_id = txn;
          r.slot = static_cast<uint32_t>(rng.Uniform(1000));
          if (!r.data.empty()) {
            r.data = testing::FilledBytes(rng.Uniform(700),
                                          static_cast<uint8_t>(txn));
          }
          ASSERT_OK(slb.Append(txn, r));
          appended.push_back(r);
        }
        ASSERT_OK(slb.Commit(txn, /*epoch=*/static_cast<uint32_t>(txn),
                             /*csn=*/txn * 10));
      }
      std::vector<uint8_t> scratch;
      for (const LogRecord& want : appended) {
        ASSERT_OK_AND_ASSIGN(LogRecordView got,
                             slb.PopCommitted(&scratch, framed));
        ASSERT_TRUE(Inside(got.stored, scratch));
        ASSERT_TRUE(Inside(got.data, scratch));
        std::vector<uint8_t> expect;
        if (framed) {
          wire::PutU32(&expect, static_cast<uint32_t>(want.txn_id));
          wire::PutU64(&expect, want.txn_id * 10);
        }
        want.AppendTo(&expect);
        ASSERT_EQ(std::vector<uint8_t>(got.stored.begin(), got.stored.end()),
                  expect);
        ASSERT_EQ(got.epoch, want.txn_id);
        ASSERT_EQ(got.csn, want.txn_id * 10);
      }
      ASSERT_FALSE(slb.HasCommittedRecords());

      // An op code no parser knows: the pop reports Corruption.
      LogRecord bad = SampleRecords()[2];
      bad.op = static_cast<LogOp>(6 + rng.Uniform(250));
      ASSERT_OK(slb.Append(99, bad));
      ASSERT_OK(slb.Commit(99));
      auto popped = slb.PopCommitted(&scratch, framed);
      ASSERT_FALSE(popped.ok());
      ASSERT_TRUE(popped.status().IsCorruption());
    }
  }
}

Sample EncodeTTree(size_t count) {
  node::TTreeNode n;
  n.capacity = 8;
  n.height = 2;
  n.left = EntityAddr{{1, 2}, 3};
  for (size_t i = 0; i < count; ++i) {
    n.entries.push_back({static_cast<int64_t>(i) * 5, EntityAddr{{7, 1}, 9}});
  }
  return Sample{n.Serialize(), {{2, 2}, {4, 2}}};
}

Sample EncodeHash(size_t count) {
  node::HashNode n;
  n.capacity = 6;
  n.next = EntityAddr{{3, 3}, 1};
  for (size_t i = 0; i < count; ++i) {
    n.entries.push_back({static_cast<int64_t>(i) - 2, EntityAddr{{2, 0}, 4}});
  }
  return Sample{n.Serialize(), {{2, 2}, {4, 2}}};
}

TEST(DecoderFuzzTest, IndexNodesParseOrReportCorruption) {
  std::vector<Sample> samples;
  for (size_t count : {0, 3, 8}) samples.push_back(EncodeTTree(count));
  for (size_t count : {0, 2, 6}) samples.push_back(EncodeHash(count));
  ForEachMutant(samples, [](const std::vector<uint8_t>& in) {
    auto t = node::TTreeNode::Parse(in);
    if (!t.ok()) {
      ASSERT_TRUE(t.status().IsCorruption()) << t.status().ToString();
    } else {
      // Every parsed entry was read from the input.
      ASSERT_LE(node::kTTreeHeaderSize +
                    t.value().entries.size() * node::kEntrySize,
                in.size());
    }
    auto h = node::HashNode::Parse(in);
    if (!h.ok()) {
      ASSERT_TRUE(h.status().IsCorruption()) << h.status().ToString();
    } else {
      ASSERT_LE(node::kHashHeaderSize +
                    h.value().entries.size() * node::kEntrySize,
                in.size());
    }
  });
}

TEST(DecoderFuzzTest, TuplesDecodeOrReportCorruption) {
  Schema schema({{"id", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"balance", ColumnType::kInt64},
                 {"note", ColumnType::kString}});
  std::vector<Sample> samples;
  for (const std::string& name : {std::string(), std::string("alice"),
                                  std::string(200, 'z')}) {
    Tuple t{int64_t{7}, name, int64_t{-3}, std::string("n")};
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> bytes, schema.Encode(t));
    // The two string length fields: after the first int64, and after the
    // first string and the second int64.
    samples.push_back(Sample{bytes, {{8, 4}, {8 + 4 + name.size() + 8, 4}}});
  }
  ForEachMutant(samples, [&](const std::vector<uint8_t>& in) {
    auto t = schema.Decode(in);
    if (!t.ok()) {
      ASSERT_TRUE(t.status().IsCorruption()) << t.status().ToString();
      return;
    }
    // A decoded tuple re-encodes to exactly its input (trailing bytes are
    // rejected, so nothing of the input is left unread).
    ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> again, schema.Encode(t.value()));
    ASSERT_EQ(again, in);
  });
}

}  // namespace
}  // namespace mmdb
