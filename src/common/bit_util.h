// Bit-manipulation helpers used throughout the sketching code.
#ifndef CASTREAM_COMMON_BIT_UTIL_H_
#define CASTREAM_COMMON_BIT_UTIL_H_

#include <bit>
#include <cstdint>

namespace castream {

/// \brief floor(log2(v)) for v >= 1; returns 0 for v == 0.
inline constexpr int FloorLog2(uint64_t v) {
  return v == 0 ? 0 : 63 - std::countl_zero(v);
}

/// \brief ceil(log2(v)) for v >= 1; returns 0 for v <= 1.
inline constexpr int CeilLog2(uint64_t v) {
  if (v <= 1) return 0;
  return 64 - std::countl_zero(v - 1);
}

/// \brief Smallest power of two >= v (v <= 2^63).
inline constexpr uint64_t NextPow2(uint64_t v) {
  return v <= 1 ? 1 : uint64_t{1} << CeilLog2(v);
}

inline constexpr bool IsPow2(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// \brief Number of leading zeros of a 64-bit value (64 for zero). Used by
/// hash-level assignment in distinct samplers: an element lands at level l
/// with probability 2^-l.
inline constexpr int LeadingZeros(uint64_t v) { return std::countl_zero(v); }

/// \brief Number of trailing zeros (64 for zero).
inline constexpr int TrailingZeros(uint64_t v) { return std::countr_zero(v); }

/// \brief Geometric "sampling level" of a hash value: the number of leading
/// zero bits, so Pr[Level(h) >= l] = 2^-l for uniform h.
inline constexpr int HashLevel(uint64_t h) { return std::countl_zero(h); }

}  // namespace castream

#endif  // CASTREAM_COMMON_BIT_UTIL_H_
