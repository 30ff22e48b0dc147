// 128-bit integer alias. GCC/Clang's __int128 is used for overflow-free
// cross multiplication of 64-bit fractions; the __extension__ marker
// keeps -Wpedantic quiet about the non-ISO type.
#ifndef MCR_SUPPORT_INT128_H
#define MCR_SUPPORT_INT128_H

namespace mcr {

__extension__ typedef __int128 int128;
__extension__ typedef unsigned __int128 uint128;

/// The largest int128 (std::numeric_limits may not know the type).
inline constexpr int128 kInt128Max = static_cast<int128>(~uint128{0} >> 1);

}  // namespace mcr

#endif  // MCR_SUPPORT_INT128_H
