#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#include "util/crc32_internal.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MMDB_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace mmdb {

namespace {

// Slicing tables: table[0] is the classic byte-at-a-time CRC-32
// (reflected, polynomial 0xEDB88320); table[k][b] extends table[k-1][b]
// by one zero byte. Sixteen input bytes fold in parallel per iteration.
std::array<std::array<uint32_t, 256>, 16> MakeTables() {
  std::array<std::array<uint32_t, 256>, 16> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 16; ++k) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

const std::array<std::array<uint32_t, 256>, 16>& Tables() {
  static const std::array<std::array<uint32_t, 256>, 16> kT = MakeTables();
  return kT;
}

bool g_use_reference = false;

// Advances the CRC register `c` (pre-inverted, not yet post-inverted)
// over `n` bytes, sixteen at a time.
uint32_t SliceUpdate(uint32_t c, const unsigned char* p, size_t n) {
  const auto& kT = Tables();
  // The word-folding path assumes little-endian lane order (every
  // supported target); anything else takes the byte-serial tail loop.
  while (std::endian::native == std::endian::little && n >= 16) {
    uint32_t w0;
    uint32_t w1;
    uint32_t w2;
    uint32_t w3;
    std::memcpy(&w0, p, 4);
    std::memcpy(&w1, p + 4, 4);
    std::memcpy(&w2, p + 8, 4);
    std::memcpy(&w3, p + 12, 4);
    w0 ^= c;
    c = kT[15][w0 & 0xFFu] ^ kT[14][(w0 >> 8) & 0xFFu] ^
        kT[13][(w0 >> 16) & 0xFFu] ^ kT[12][w0 >> 24] ^ kT[11][w1 & 0xFFu] ^
        kT[10][(w1 >> 8) & 0xFFu] ^ kT[9][(w1 >> 16) & 0xFFu] ^
        kT[8][w1 >> 24] ^ kT[7][w2 & 0xFFu] ^ kT[6][(w2 >> 8) & 0xFFu] ^
        kT[5][(w2 >> 16) & 0xFFu] ^ kT[4][w2 >> 24] ^ kT[3][w3 & 0xFFu] ^
        kT[2][(w3 >> 8) & 0xFFu] ^ kT[1][(w3 >> 16) & 0xFFu] ^
        kT[0][w3 >> 24];
    p += 16;
    n -= 16;
  }
  while (n-- > 0) {
    c = kT[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#ifdef MMDB_CRC32_CLMUL

// Folding kernel after Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ" (Intel, 2009), for the reflected
// polynomial 0xEDB88320 (P = 0x104C11DB7). Each fold constant is
// [(x^e mod P) << 32]' << 1, with ' the 64-bit reflection:
//   k1, k2  e = 4*128 +/- 32   four lanes, 64 bytes per step
//   k3, k4  e = 128 +/- 32     one lane, 16 bytes per step
//   k5      e = 64             128 -> 64 bits
// and the Barrett pair is mu = x^64 / P and P itself, both reflected
// over 33 bits. Four 128-bit lanes advance 64 bytes per iteration; they
// merge into one lane, single 16-byte folds take the rest, and a
// Barrett reduction brings the 64-bit remainder down to the register.
//
// The wide kernel runs the same fold on 512-bit registers (VPCLMULQDQ
// multiplies each of a zmm's four 128-bit lanes independently). Four
// zmm registers advance 256 bytes per step with
//   k6, k7  e = 4*512 +/- 32 = {0x11542778a, 0x1322d1430},
// computed like the others; the four merge by 512 bits with k1k2, which
// also takes any further 64-byte blocks, and the merged register's four
// 128-bit lanes enter the tail above at the k3k4 merge.

#define MMDB_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))
#define MMDB_WIDE_TARGET \
  __attribute__((target("pclmul,sse4.1,vpclmulqdq,avx512f,avx512vl,avx512bw")))

constexpr int64_t kK1 = 0x154442bd4;
constexpr int64_t kK2 = 0x1c6e41596;

// Folds `x` forward by the distance encoded in `k` (low qword for x's
// low half, high qword for its high half) and adds `next`.
MMDB_CLMUL_TARGET inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

MMDB_CLMUL_TARGET inline __m128i Load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Merges four lanes holding consecutive 16-byte positions (x0 oldest)
// into one, folds the remaining `n` bytes (a multiple of 16) in 16 bytes
// at a time, and reduces to the 32-bit register.
MMDB_CLMUL_TARGET uint32_t FinishFold(__m128i x0, __m128i x1, __m128i x2,
                                      __m128i x3, const unsigned char* p,
                                      size_t n) {
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  x0 = Fold(x0, k3k4, x1);
  x0 = Fold(x0, k3k4, x2);
  x0 = Fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) {
    x0 = Fold(x0, k3k4, Load(p));
  }

  // 128 -> 64 bits: fold the low qword onto the high one by k4, then the
  // low 32 bits of the result by k5.
  __m128i t = _mm_clmulepi64_si128(x0, k3k4, 0x10);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), t);
  t = _mm_srli_si128(x0, 4);
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00);
  x0 = _mm_xor_si128(x0, t);

  // Barrett reduction: quotient estimate by mu = x^64 / P (high qword
  // of `poly`), times P (low qword); the remainder lands in lane 1.
  t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x0 = _mm_xor_si128(x0, t);
  return static_cast<uint32_t>(_mm_extract_epi32(x0, 1));
}

// Advances register `c` over `n` bytes; n >= 64 and a multiple of 16.
MMDB_CLMUL_TARGET uint32_t FoldBlocks(uint32_t c, const unsigned char* p,
                                      size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);

  __m128i x0 =
      _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = Load(p + 16);
  __m128i x2 = Load(p + 32);
  __m128i x3 = Load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold(x0, k1k2, Load(p));
    x1 = Fold(x1, k1k2, Load(p + 16));
    x2 = Fold(x2, k1k2, Load(p + 32));
    x3 = Fold(x3, k1k2, Load(p + 48));
  }
  return FinishFold(x0, x1, x2, x3, p, n);
}

// Fold() on each of a zmm register's four 128-bit lanes.
MMDB_WIDE_TARGET inline __m512i FoldWide(__m512i x, __m512i k, __m512i next) {
  __m512i lo = _mm512_clmulepi64_epi128(x, k, 0x00);
  __m512i hi = _mm512_clmulepi64_epi128(x, k, 0x11);
  return _mm512_ternarylogic_epi64(hi, lo, next, 0x96);  // hi ^ lo ^ next
}

MMDB_WIDE_TARGET inline __m512i LoadWide(const unsigned char* p) {
  return _mm512_loadu_si512(p);
}

// Advances register `c` over `n` bytes; n >= 256 and a multiple of 16.
MMDB_WIDE_TARGET uint32_t FoldBlocksWide(uint32_t c, const unsigned char* p,
                                         size_t n) {
  const __m512i k6k7 = _mm512_set_epi64(0x1322d1430, 0x11542778a,
                                        0x1322d1430, 0x11542778a,
                                        0x1322d1430, 0x11542778a,
                                        0x1322d1430, 0x11542778a);
  const __m512i k1k2 =
      _mm512_set_epi64(kK2, kK1, kK2, kK1, kK2, kK1, kK2, kK1);

  const __m512i seed = _mm512_inserti32x4(
      _mm512_setzero_si512(), _mm_cvtsi32_si128(static_cast<int>(c)), 0);
  __m512i z0 = _mm512_xor_si512(LoadWide(p), seed);
  __m512i z1 = LoadWide(p + 64);
  __m512i z2 = LoadWide(p + 128);
  __m512i z3 = LoadWide(p + 192);
  p += 256;
  n -= 256;
  for (; n >= 256; p += 256, n -= 256) {
    z0 = FoldWide(z0, k6k7, LoadWide(p));
    z1 = FoldWide(z1, k6k7, LoadWide(p + 64));
    z2 = FoldWide(z2, k6k7, LoadWide(p + 128));
    z3 = FoldWide(z3, k6k7, LoadWide(p + 192));
  }
  z0 = FoldWide(z0, k1k2, z1);
  z0 = FoldWide(z0, k1k2, z2);
  z0 = FoldWide(z0, k1k2, z3);
  for (; n >= 64; p += 64, n -= 64) {
    z0 = FoldWide(z0, k1k2, LoadWide(p));
  }
  // Zero-masked extracts: the plain forms pass GCC an undefined operand.
  const __m128i x0 = _mm512_maskz_extracti32x4_epi32(0xF, z0, 0);
  const __m128i x1 = _mm512_maskz_extracti32x4_epi32(0xF, z0, 1);
  const __m128i x2 = _mm512_maskz_extracti32x4_epi32(0xF, z0, 2);
  const __m128i x3 = _mm512_maskz_extracti32x4_epi32(0xF, z0, 3);
  // The tail is SSE-encoded: clear the upper register state first, or
  // every later SSE instruction in the process pays a transition penalty.
  _mm256_zeroupper();
  return FinishFold(x0, x1, x2, x3, p, n);
}

#undef MMDB_WIDE_TARGET
#undef MMDB_CLMUL_TARGET

bool DetectClmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

bool DetectWideClmul() {
  __builtin_cpu_init();
  return DetectClmul() && __builtin_cpu_supports("vpclmulqdq") &&
         __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512bw");
}

#endif  // MMDB_CRC32_CLMUL

}  // namespace

namespace crc32_internal {

uint32_t SlicingCrc32(const void* data, size_t n, uint32_t seed) {
  return ~SliceUpdate(~seed, static_cast<const unsigned char*>(data), n);
}

bool HasClmulKernel() {
#ifdef MMDB_CRC32_CLMUL
  static const bool kHas = DetectClmul();
  return kHas;
#else
  return false;
#endif
}

bool HasWideClmulKernel() {
#ifdef MMDB_CRC32_CLMUL
  static const bool kHas = DetectWideClmul();
  return kHas;
#else
  return false;
#endif
}

uint32_t WideClmulCrc32(const void* data, size_t n, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = ~seed;
#ifdef MMDB_CRC32_CLMUL
  if (n >= 64) {
    size_t bulk = n & ~size_t{15};
    c = bulk >= 256 ? FoldBlocksWide(c, p, bulk) : FoldBlocks(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return ~SliceUpdate(c, p, n);
}

uint32_t ClmulCrc32(const void* data, size_t n, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = ~seed;
#ifdef MMDB_CRC32_CLMUL
  if (n >= 64) {
    size_t bulk = n & ~size_t{15};
    c = FoldBlocks(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return ~SliceUpdate(c, p, n);
}

}  // namespace crc32_internal

uint32_t Crc32Reference(const void* data, size_t n, uint32_t seed) {
  const auto& kT = Tables();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  while (n-- > 0) {
    c = kT[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void UseReferenceCrc32(bool on) { g_use_reference = on; }

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  if (g_use_reference) return Crc32Reference(data, n, seed);
  if (crc32_internal::HasWideClmulKernel()) {
    return crc32_internal::WideClmulCrc32(data, n, seed);
  }
  if (crc32_internal::HasClmulKernel()) {
    return crc32_internal::ClmulCrc32(data, n, seed);
  }
  return crc32_internal::SlicingCrc32(data, n, seed);
}

}  // namespace mmdb
