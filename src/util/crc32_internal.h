#ifndef MMDB_UTIL_CRC32_INTERNAL_H_
#define MMDB_UTIL_CRC32_INTERNAL_H_

// The bodies behind Crc32(), exposed so tests and bench_crc32 can
// drive each one directly on any machine. Engine code calls Crc32().

#include <cstddef>
#include <cstdint>

namespace mmdb::crc32_internal {

/// Slicing-by-16 table CRC: the whole path on targets without the
/// folding kernel, and the tail after it elsewhere.
uint32_t SlicingCrc32(const void* data, size_t n, uint32_t seed);

/// True when the 128-bit folding kernel can run here: an x86-64 build on
/// a CPU with PCLMULQDQ and SSE4.1 (CPUID, probed once per process).
bool HasClmulKernel();

/// Carry-less-multiply folding over the bulk of the buffer (lengths of
/// 64 bytes and up, rounded down to a multiple of 16), slicing-by-16 over
/// the rest. Requires HasClmulKernel().
uint32_t ClmulCrc32(const void* data, size_t n, uint32_t seed);

/// True when this process runs the 512-bit folding kernel: an x86-64
/// build on a CPU with VPCLMULQDQ, AVX512F, AVX512VL and AVX512BW (CPUID,
/// probed once per process). Implies HasClmulKernel().
bool HasWideClmulKernel();

/// Folds four 512-bit lanes, 256 bytes per step, over the bulk of
/// buffers of 256 bytes and up (rounded down to a multiple of 16); the
/// 128-bit kernel takes bulks of 64 to 255 bytes, slicing-by-16 the rest.
/// Requires HasWideClmulKernel().
uint32_t WideClmulCrc32(const void* data, size_t n, uint32_t seed);

}  // namespace mmdb::crc32_internal

#endif  // MMDB_UTIL_CRC32_INTERNAL_H_
