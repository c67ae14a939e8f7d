#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "machines/machine.hpp"
#include "sim/rng.hpp"

// Shared helpers for the test suite: small machine instances (so the suite
// stays fast on one core) and deterministic data generators.

namespace pcm::test {

/// A 256-PE MasPar (16 clusters — same delta-router topology class).
inline std::unique_ptr<machines::Machine> small_maspar(std::uint64_t seed = 11) {
  return machines::make_machine({.platform = machines::Platform::MasPar, .procs = 256, .seed = seed});
}

/// A 16-node GCel (4x4 mesh).
inline std::unique_ptr<machines::Machine> small_gcel(std::uint64_t seed = 12) {
  return machines::make_machine({.platform = machines::Platform::GCel, .procs = 16, .seed = seed});
}

/// A 16-node CM-5.
inline std::unique_ptr<machines::Machine> small_cm5(std::uint64_t seed = 13) {
  return machines::make_machine({.platform = machines::Platform::CM5, .procs = 16, .seed = seed});
}

inline std::vector<std::uint32_t> random_keys(std::size_t n,
                                              std::uint64_t seed = 99) {
  sim::Rng rng(seed);
  std::vector<std::uint32_t> keys(n);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_u64());
  return keys;
}

template <typename T>
std::vector<T> random_matrix(int n, std::uint64_t seed = 7) {
  sim::Rng rng(seed);
  std::vector<T> m(static_cast<std::size_t>(n) * n);
  for (auto& v : m) v = static_cast<T>(rng.next_double() * 2.0 - 1.0);
  return m;
}

/// Every PE's delivered parcels as "dst<src#tag[data]" entries (a trailing
/// '*' marks a corrupted parcel), destinations ascending, each
/// destination's parcels in delivery order.
template <typename Box>
std::string transcript(const Box& box) {
  std::string out;
  for (int p = 0; p < box.procs(); ++p) {
    for (const auto& parcel : box.at(p)) {
      out += std::to_string(p) + "<" + std::to_string(parcel.src) + "#" +
             std::to_string(parcel.tag) + "[";
      for (const auto v : parcel.data) out += std::to_string(v) + ",";
      out += parcel.corrupted ? "]* " : "] ";
    }
  }
  return out;
}

/// RAII toggle for the runtime flag of a plane (obs/audit/race): sets it to
/// `want` and restores the previous value when the scope ends.
class FlagGuard {
 public:
  FlagGuard(void (*set)(bool), bool (*get)(), bool want)
      : set_(set), saved_(get()) {
    set_(want);
  }
  ~FlagGuard() { set_(saved_); }
  FlagGuard(const FlagGuard&) = delete;
  FlagGuard& operator=(const FlagGuard&) = delete;

 private:
  void (*set_)(bool);
  bool saved_;
};

/// A scratch path under testing::TempDir() named for the test and this
/// process, removed before use and when the test ends, whether a file or a
/// directory lives there: two suites running at once (say, a release and a
/// sanitizer build) never share files, and no run leaves any behind.
class ScopedTempPath {
 public:
  explicit ScopedTempPath(const std::string& name)
      : path_(testing::TempDir() + "pcm-" + name + "-" +
              std::to_string(::getpid())) {
    std::filesystem::remove_all(path_);
  }
  ~ScopedTempPath() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempPath(const ScopedTempPath&) = delete;
  ScopedTempPath& operator=(const ScopedTempPath&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

template <typename T>
double max_abs_diff(const std::vector<T>& a, const std::vector<T>& b) {
  double mx = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const double d = std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
    if (d > mx) mx = d;
  }
  return mx;
}

}  // namespace pcm::test
