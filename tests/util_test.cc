#include <gtest/gtest.h>

#include <map>
#include <set>

#include "test_util.h"
#include "util/crc32.h"
#include "util/crc32_internal.h"
#include "util/random.h"
#include "util/status.h"

namespace mmdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Full("x").IsFull());
  EXPECT_TRUE(Status::NotResident("x").IsNotResident());
  EXPECT_TRUE(Status::Fault("x").IsFault());
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto fn = [](bool fail) -> Status {
    MMDB_RETURN_IF_ERROR(fail ? Status::Busy("b") : Status::OK());
    return Status::NotFound("reached end");
  };
  EXPECT_TRUE(fn(true).IsBusy());
  EXPECT_TRUE(fn(false).IsNotFound());
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  Result<int> err(Status::Full("no room"));
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsFull());
}

TEST(ResultTest, WorksWithoutDefaultConstructor) {
  struct NoDefault {
    explicit NoDefault(int x) : x(x) {}
    int x;
  };
  Result<NoDefault> r(NoDefault(3));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().x, 3);
}

TEST(Crc32Test, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE).
  const char* s = "123456789";
  EXPECT_EQ(Crc32(s, 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32("", 0), 0u); }

TEST(Crc32Test, SeedChaining) {
  // Seeding with the CRC of a prefix continues the checksum, so a CRC
  // chained over the parts equals the CRC of the whole buffer.
  const char* s = "hello world";
  EXPECT_EQ(Crc32(s, 11), 0x0d4a1185u);
  EXPECT_EQ(Crc32(s + 5, 6, Crc32(s, 5)), Crc32(s, 11));
  // Splits at every offset up to 600 put the seam on both sides of the
  // folding kernels' 16-, 64- and 256-byte block boundaries.
  std::vector<uint8_t> buf = testing::FilledBytes(1024, 9);
  uint32_t whole = Crc32(buf.data(), buf.size());
  for (size_t split = 0; split <= 600; ++split) {
    EXPECT_EQ(Crc32(buf.data() + split, buf.size() - split,
                    Crc32(buf.data(), split)),
              whole)
        << "split " << split;
  }
}

TEST(Crc32Test, DetectsBitFlip) {
  std::vector<uint8_t> data = testing::FilledBytes(1024, 7);
  uint32_t before = Crc32(data.data(), data.size());
  data[512] ^= 0x01;
  EXPECT_NE(before, Crc32(data.data(), data.size()));
}

// Checks one CRC body against the byte-serial reference: every length
// 0..1100 (short buffers, the kernels' 64- and 256-byte entries, 16-byte
// tails),
// a log page and a checkpoint image, at every start offset 0..15, with
// seed 0 and a random seed.
void ExpectMatchesReference(uint32_t (*crc)(const void*, size_t, uint32_t)) {
  Random rng(1987);
  std::vector<uint8_t> buf(48 * 1024 + 16);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Uniform(256));
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 1100; ++n) lengths.push_back(n);
  lengths.push_back(8 * 1024);
  lengths.push_back(48 * 1024);
  for (size_t off = 0; off < 16; ++off) {
    for (size_t n : lengths) {
      const uint8_t* p = buf.data() + off;
      auto seed = static_cast<uint32_t>(rng.Next());
      ASSERT_EQ(crc(p, n, 0), Crc32Reference(p, n, 0))
          << "length " << n << " offset " << off;
      ASSERT_EQ(crc(p, n, seed), Crc32Reference(p, n, seed))
          << "length " << n << " offset " << off << " seed " << seed;
    }
  }
}

TEST(Crc32Test, SlicedMatchesReferenceAtAllLengths) {
  // Crc32() — whichever body it dispatches to — and the byte-serial
  // reference must agree: disk checksums written by one are verified by
  // the other in bench_sim_scale's pre/post-unification A/B phases.
  ExpectMatchesReference(&Crc32);
}

TEST(Crc32Test, SlicingPathMatchesReference) {
  ExpectMatchesReference(&crc32_internal::SlicingCrc32);
}

TEST(Crc32Test, ClmulKernelMatchesReference) {
  if (!crc32_internal::HasClmulKernel()) {
    GTEST_SKIP() << "no PCLMULQDQ/SSE4.1 kernel on this target or CPU";
  }
  ExpectMatchesReference(&crc32_internal::ClmulCrc32);
}

TEST(Crc32Test, WideClmulKernelMatchesReference) {
  if (!crc32_internal::HasWideClmulKernel()) {
    GTEST_SKIP() << "no VPCLMULQDQ/AVX-512 kernel on this target or CPU";
  }
  ExpectMatchesReference(&crc32_internal::WideClmulCrc32);
}

TEST(Crc32Test, ReferenceToggleRoutesFastPath) {
  std::vector<uint8_t> data = testing::FilledBytes(512, 3);
  uint32_t fast = Crc32(data.data(), data.size());
  UseReferenceCrc32(true);
  uint32_t routed = Crc32(data.data(), data.size());
  UseReferenceCrc32(false);
  EXPECT_EQ(fast, routed);
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Uniform(10);
    EXPECT_LT(v, 10u);
  }
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, UniformCoversAllValues) {
  Random r(99);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, BernoulliExtremes) {
  Random r(1);
  EXPECT_FALSE(r.Bernoulli(0.0));
  EXPECT_TRUE(r.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.Bernoulli(0.3) ? 1 : 0;
  EXPECT_GT(hits, 2000);
  EXPECT_LT(hits, 4000);
}

TEST(RandomTest, SkewedFavorsLowIndices) {
  Random r(5);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 10000; ++i) ++counts[r.Skewed(100, 0.8)];
  // Element 0 should be much hotter than element 50.
  EXPECT_GT(counts[0], counts[50] * 2);
}

TEST(RandomTest, NextStringShapeAndDeterminism) {
  Random a(3), b(3);
  std::string s1 = a.NextString(16);
  std::string s2 = b.NextString(16);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1.size(), 16u);
  for (char c : s1) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

}  // namespace
}  // namespace mmdb
