#pragma once

#include <cstdint>
#include <span>
#include <vector>

// Deterministic pseudo-random number generation for the simulators and the
// calibration micro-benchmarks. Everything that is random in this library
// (destination picks, overhead jitter, sample selection) flows from a seeded
// `Rng`, so every experiment is exactly reproducible.
//
// The generator is xoshiro256** seeded via SplitMix64 — fast, high quality,
// and independent of the standard library's unspecified distributions.

namespace pcm::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Uniform 64-bit value. Inline, like next_double(): out of line, a
  /// loop of draws keeps the generator state in memory.
  std::uint64_t next_u64() {
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

  /// Advance the stream by `words` next_u64() calls, discarding them.
  void discard(std::uint64_t words);

  /// Uniform integer in [0, bound) using Lemire's rejection method.
  /// bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1): the top 53 bits of next_u64().
  double next_double() { return unit_double(next_u64()); }

  /// Normally distributed value (Box-Muller, no caching — deterministic):
  /// box_muller() of the next two next_u64() words.
  double next_gaussian(double mean = 0.0, double stddev = 1.0);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// A uniformly random permutation of {0, .., n-1}.
  std::vector<int> permutation(int n);

  /// k distinct values drawn uniformly from {0, .., n-1} (k <= n).
  std::vector<int> sample_without_replacement(int n, int k);

  /// Derive an independent child stream (for per-trial reproducibility).
  /// Advances this stream by one draw.
  Rng fork();

  /// Derive an independent child stream keyed by `key` *without* advancing
  /// this stream. split() is a pure function of (current state, key), so the
  /// same parent state yields the same child for a given key no matter how
  /// many other keys are split off, in what order, or from which thread —
  /// the property the parallel experiment engine's per-cell seeding relies
  /// on.
  [[nodiscard]] Rng split(std::uint64_t key) const;

 private:
  friend double box_muller(std::uint64_t first, std::uint64_t second,
                           double mean, double stddev);

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// Uniform double in [0, 1) from one 64-bit word: its top 53 bits.
  static double unit_double(std::uint64_t x) {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  std::uint64_t s_[4];
};

/// The Box-Muller transform behind Rng::next_gaussian: `first` and `second`
/// are the two next_u64() words a call consumes, in that order. A draw is a
/// pure function of those two words, so it can be computed on any thread,
/// ahead of use, with the same bits (see GaussianStream).
double box_muller(std::uint64_t first, std::uint64_t second, double mean = 0.0,
                  double stddev = 1.0);

}  // namespace pcm::sim
