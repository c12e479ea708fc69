#include "tunespace/util/rng.hpp"

#include <cassert>
#include <cmath>
#include <unordered_map>

namespace tunespace::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // Guard against the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full 64-bit range
  // Unbiased rejection sampling (Lemire-style threshold).
  const std::uint64_t threshold = (0 - range) % range;
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return lo + static_cast<std::int64_t>(r % range);
  }
}

std::size_t Rng::index(std::size_t n) {
  assert(n > 0);
  return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

double Rng::uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::normal() {
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

bool Rng::chance(double p) { return uniform() < p; }

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  assert(k <= n);
  // Partial Fisher-Yates over the identity vector [0, n), with only the
  // entries a swap displaced stored: the same draws and output as the dense
  // shuffle, in O(k) time and memory whatever n is.  Position i is never
  // read again once step i has taken it.
  std::unordered_map<std::size_t, std::size_t> displaced;
  displaced.reserve(k);
  const auto at = [&](std::size_t pos) {
    const auto it = displaced.find(pos);
    return it == displaced.end() ? pos : it->second;
  };
  std::vector<std::size_t> picked(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + index(n - i);
    picked[i] = at(j);
    displaced[j] = at(i);
  }
  return picked;
}

Rng Rng::split() {
  Rng child;
  child.reseed((*this)());
  return child;
}

}  // namespace tunespace::util
