#pragma once
// Deterministic pseudo-random number generation for tunespace.
//
// All randomized components of the library (synthetic space generation,
// sampling, optimizers) draw from this generator so that every experiment in
// the repository is exactly reproducible from a seed.  The implementation is
// xoshiro256** by Blackman & Vigna, seeded through splitmix64, which is both
// faster and statistically stronger than std::mt19937 while having a trivial,
// allocation-free state.

#include <cstdint>
#include <vector>

namespace tunespace::util {

/// Fold `v` into hash state `h` (splitmix64 finalizer over a boost-style
/// combine).  The one mixing function shared by the row-hash tables, the
/// performance-model jitter and the evaluation-cache keys — callers rely on
/// it never changing silently, so tweak it nowhere or everywhere.
inline std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  return h ^ (h >> 27);
}

/// xoshiro256** PRNG with splitmix64 seeding.
/// Satisfies the C++ UniformRandomBitGenerator concept.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Construct from a 64-bit seed; the default seed is arbitrary but fixed.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  /// Re-initialize the state from a seed via splitmix64 expansion.
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64-bit output.
  std::uint64_t operator()();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Uniform real in [0, 1).
  double uniform();

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal variate (Box-Muller, no cached spare for simplicity).
  double normal();

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Fisher-Yates shuffle of a vector in place.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Choose k distinct indices out of n (k <= n), in random order: the
  /// first k entries of a partial Fisher-Yates shuffle of [0, n), drawing
  /// index(n - i) for i = 0 .. k-1.  O(k) time and memory.  The draws and
  /// the output are result bits for every optimizer that samples (see
  /// CONTRIBUTING, "Optimizer-query invariants").
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// Derive an independent child generator (for parallel / per-item streams).
  Rng split();

 private:
  std::uint64_t s_[4];
};

}  // namespace tunespace::util
