#ifndef AIMAI_COMMON_ORDERED_BITS_H_
#define AIMAI_COMMON_ORDERED_BITS_H_

// The order-preserving integer image of a numeric key, shared by index
// bulk loads, equality seeks and column statistics.

#include <cstdint>
#include <cstring>

namespace aimai {

/// Unsigned integer whose order is the numeric order of `v`. -0.0 maps to
/// +0.0's image, so the two tie exactly as they do under a double compare.
/// A positive NaN maps above +inf and a negative NaN below -inf; no value
/// maps to 0 except a NaN with every bit set.
inline uint64_t OrderedBits(double v) {
  if (v == 0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  constexpr uint64_t kSign = 1ULL << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

}  // namespace aimai

#endif  // AIMAI_COMMON_ORDERED_BITS_H_
