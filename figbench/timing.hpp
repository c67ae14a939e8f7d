#pragma once

// pcm-lint:allow-file(wallclock)
// The benchmark exists to measure host time, so it reads the host clock —
// here and nowhere else. Host time only ever reaches the benchmark's own
// report; it never feeds a simulated quantity, an output or a digest.

#include <chrono>
#include <cstdint>

namespace figbench {

/// Monotonic host time in nanoseconds.
inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

}  // namespace figbench
