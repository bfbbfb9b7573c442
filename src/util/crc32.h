#ifndef MMDB_UTIL_CRC32_H_
#define MMDB_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace mmdb {

/// CRC-32 (IEEE 802.3 polynomial) over `n` bytes starting at `data`,
/// seeded with `seed` so checksums can be chained across buffers:
/// Crc32(b, n) == Crc32(b + k, n - k, Crc32(b, k)). Used to validate
/// checkpoint images and log pages read back from the simulated disks.
/// On x86-64 CPUs with VPCLMULQDQ and AVX-512 a 512-bit carry-less-
/// multiply folding kernel takes the bulk of buffers of 256 bytes and up;
/// with PCLMULQDQ a 128-bit one takes the bulk of buffers of 64 bytes and
/// up; everywhere else, and for the tail, slicing-by-16 tables. All give
/// the same value.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// Byte-at-a-time reference implementation — the simulator's checksum
/// hot path before the table-slicing rewrite. Bit-identical to Crc32();
/// kept for equivalence testing and as the pre-unification baseline in
/// bench_sim_scale's A/B phases.
uint32_t Crc32Reference(const void* data, size_t n, uint32_t seed = 0);

/// Routes Crc32() through the reference implementation (process-wide,
/// not thread-safe — the simulator is single-threaded). Bench/test only.
void UseReferenceCrc32(bool on);

}  // namespace mmdb

#endif  // MMDB_UTIL_CRC32_H_
