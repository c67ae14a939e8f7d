#include "sim/rng.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

namespace pcm::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

void Rng::discard(std::uint64_t words) {
  for (std::uint64_t i = 0; i < words; ++i) (void)next_u64();
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless method.
  std::uint64_t x = next_u64();
  unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<unsigned __int128>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_gaussian(double mean, double stddev) {
  // Two words every call, so the stream stays aligned.
  const std::uint64_t first = next_u64();
  const std::uint64_t second = next_u64();
  return box_muller(first, second, mean, stddev);
}

double box_muller(std::uint64_t first, std::uint64_t second, double mean,
                  double stddev) {
  double u1 = Rng::unit_double(first);
  const double u2 = Rng::unit_double(second);
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

std::vector<int> Rng::permutation(int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  shuffle(std::span<int>(p));
  return p;
}

std::vector<int> Rng::sample_without_replacement(int n, int k) {
  assert(k <= n);
  // Partial Fisher-Yates over an index vector.
  std::vector<int> idx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < k; ++i) {
    const auto j =
        i + static_cast<int>(next_below(static_cast<std::uint64_t>(n - i)));
    std::swap(idx[static_cast<std::size_t>(i)], idx[static_cast<std::size_t>(j)]);
  }
  idx.resize(static_cast<std::size_t>(k));
  return idx;
}

Rng Rng::fork() { return Rng(next_u64()); }

Rng Rng::split(std::uint64_t key) const {
  // Hash the four state words together with the key through a SplitMix64
  // chain. Distinct keys land in distinct (with overwhelming probability)
  // child streams; the parent state is read, never written.
  std::uint64_t acc = 0x9e3779b97f4a7c15ull ^ key;
  std::uint64_t seed = splitmix64(acc);
  for (const auto s : s_) {
    acc ^= s;
    seed = splitmix64(acc) ^ rotl(seed, 29);
  }
  return Rng(seed);
}

}  // namespace pcm::sim
