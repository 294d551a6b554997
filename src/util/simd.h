#pragma once
// Multi-word bitwise kernels behind a runtime ISA dispatch.
//
// The simulation hot paths (bit-parallel Simulator, HOPE-style fault
// simulator, BitVec algebra) all reduce to bulk AND/OR/XOR/NOT/popcount
// over arrays of 64-bit words. This header routes them through one kernel
// table resolved once per process: an AVX2 implementation when the CPU
// supports it, a portable scalar loop otherwise. Both paths compute the
// same pure bitwise functions, so results are bit-identical regardless of
// which one runs — the dispatch affects throughput only, never output.
//
// ORAP_SIMD=scalar forces the scalar path (read once, at first use). CI
// uses it to A/B the two implementations against each other.

#include <cstddef>
#include <cstdint>

namespace orap::simd {

/// Words per simulation block in the wide simulator / fault simulator
/// (4 x 64 = 256 patterns per block, one AVX2 register per gate step).
inline constexpr std::size_t kBlockWords = 4;

enum class Isa { kScalar, kAvx2 };

/// The ISA the kernel table resolved to (after the ORAP_SIMD override).
Isa active_isa();
const char* isa_name();

/// Kernel table: every entry operates on `n` 64-bit words. dst may alias
/// a or b (the kernels are element-wise, never overlapping-shifted).
struct Kernels {
  void (*vand)(std::uint64_t* dst, const std::uint64_t* a,
               const std::uint64_t* b, std::size_t n);
  void (*vor)(std::uint64_t* dst, const std::uint64_t* a,
              const std::uint64_t* b, std::size_t n);
  void (*vxor)(std::uint64_t* dst, const std::uint64_t* a,
               const std::uint64_t* b, std::size_t n);
  void (*vnot)(std::uint64_t* dst, const std::uint64_t* a, std::size_t n);
  /// dst = (s & d1) | (~s & d0), the word-wise 2:1 mux.
  void (*vmux)(std::uint64_t* dst, const std::uint64_t* s,
               const std::uint64_t* d0, const std::uint64_t* d1,
               std::size_t n);
  /// dst ^= a & b (the GF(2) dot-product inner step).
  void (*vxor_and)(std::uint64_t* dst, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t n);
  std::uint64_t (*popcount)(const std::uint64_t* a, std::size_t n);
  bool (*any)(const std::uint64_t* a, std::size_t n);
  bool (*eq)(const std::uint64_t* a, const std::uint64_t* b, std::size_t n);
};

/// The resolved kernel table (dispatch decided on first call, thread-safe).
const Kernels& kernels();

// Convenience wrappers.
inline void vand(std::uint64_t* dst, const std::uint64_t* a,
                 const std::uint64_t* b, std::size_t n) {
  kernels().vand(dst, a, b, n);
}
inline void vor(std::uint64_t* dst, const std::uint64_t* a,
                const std::uint64_t* b, std::size_t n) {
  kernels().vor(dst, a, b, n);
}
inline void vxor(std::uint64_t* dst, const std::uint64_t* a,
                 const std::uint64_t* b, std::size_t n) {
  kernels().vxor(dst, a, b, n);
}
inline void vnot(std::uint64_t* dst, const std::uint64_t* a, std::size_t n) {
  kernels().vnot(dst, a, n);
}
inline void vmux(std::uint64_t* dst, const std::uint64_t* s,
                 const std::uint64_t* d0, const std::uint64_t* d1,
                 std::size_t n) {
  kernels().vmux(dst, s, d0, d1, n);
}
inline void vxor_and(std::uint64_t* dst, const std::uint64_t* a,
                     const std::uint64_t* b, std::size_t n) {
  kernels().vxor_and(dst, a, b, n);
}
inline std::uint64_t popcount(const std::uint64_t* a, std::size_t n) {
  return kernels().popcount(a, n);
}
inline bool any(const std::uint64_t* a, std::size_t n) {
  return kernels().any(a, n);
}
inline bool eq(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  return kernels().eq(a, b, n);
}

/// The scalar kernel table, always available — the reference the SIMD path
/// is cross-checked against in tests regardless of the dispatch decision.
const Kernels& scalar_kernels();

/// In-place transpose of a 64x64 bit matrix: on return, bit j of a[i] is
/// what bit i of a[j] was. Six rounds of block swaps (32x32 down to 1x1
/// blocks), so patterns and lane words convert in O(64 log 64) word ops
/// instead of 4096 single-bit moves.
inline void transpose64(std::uint64_t* a) {
  std::uint64_t m = 0x00000000ffffffffULL;
  for (std::size_t j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (std::size_t k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

}  // namespace orap::simd
