// Deterministic pseudo-random number generation for workload synthesis.
//
// All generators in src/gen take an explicit seed so that every
// experiment in the paper reproduction is replayable bit-for-bit. We use
// xoshiro256** (Blackman & Vigna) rather than std::mt19937 because its
// state is small, it is fast, and — unlike the standard distributions —
// our uniform_* helpers produce identical streams on every platform and
// standard library.
#ifndef MCR_SUPPORT_PRNG_H
#define MCR_SUPPORT_PRNG_H

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mcr {

/// splitmix64 (Steele, Lea & Flood): the golden-ratio increment, then
/// the avalanche finalizer. Stateless, so everything built on it — the
/// router's hash ring, fault decisions, pack checksums, trace ids,
/// sampling and backoff jitter — is a pure function of its input.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e37'79b9'7f4a'7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58'476d'1ce4'e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d0'49bb'1331'11ebULL;
  return x ^ (x >> 31);
}

/// One step of the splitmix64 generator: splitmix64(state), then
/// advance `state` by the golden-ratio increment.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) {
  const std::uint64_t out = splitmix64(state);
  state += 0x9e37'79b9'7f4a'7c15ULL;
  return out;
}

/// Uniform double in [lo, hi) drawn from the splitmix64 generator at
/// `state` — enough PRNG for jitter, with no state shared between users.
[[nodiscard]] constexpr double uniform(std::uint64_t& state, double lo, double hi) {
  const double u = static_cast<double>(splitmix64_next(state) >> 11) * 0x1.0p-53;
  return lo + u * (hi - lo);
}

/// 64-bit FNV-1a over the bytes of `s`.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf2'9ce4'8422'2325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x0000'0100'0000'01b3ULL;
  }
  return h;
}

/// xoshiro256** engine with splitmix64 seeding.
class Prng {
 public:
  explicit Prng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit output.
  std::uint64_t next();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform_real();

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Fisher-Yates shuffle of [first, first+n).
  template <typename T>
  void shuffle(T* first, std::size_t n) {
    for (std::size_t i = n; i > 1; --i) {
      const std::size_t j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      T tmp = first[i - 1];
      first[i - 1] = first[j];
      first[j] = tmp;
    }
  }

  /// Derive an independent stream (for per-trial seeds).
  std::uint64_t fork_seed();

 private:
  std::uint64_t s_[4];
};

}  // namespace mcr

#endif  // MCR_SUPPORT_PRNG_H
