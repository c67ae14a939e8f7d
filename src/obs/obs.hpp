#pragma once

#include <atomic>
#include <cstdlib>

// pcm::obs — the superstep-resolved observability plane.
//
// The paper's methodology is an attribution exercise: Section 5 explains
// each model's prediction error by splitting measured time into local
// computation, communication and synchronisation. The simulators must
// support the same decomposition *per superstep* — which superstep, which
// router wave, which channel was hot — both to reproduce that analysis and
// to give perf work on the engine hard numbers to cite. pcm::obs is that
// layer:
//
//   - a per-machine metrics registry (obs/metrics.hpp): counters, gauges
//     and log2-bucket histograms — packets, bytes, router waves per
//     exchange, circuit conflicts, ejection-port queue peaks, receive
//     backlogs, barrier skew — all in simulated quantities, deterministic
//     at any --jobs;
//   - a span recorder (obs/span.hpp): (machine, trial, superstep, phase)
//     spans in simulated time that tile [0, now()] exactly, so per-phase
//     durations sum to the total simulated time by construction; exported
//     as Chrome trace-event JSON (obs/trace_export.hpp, loadable in
//     Perfetto / chrome://tracing) and as CSV via report::csv;
//   - exec-level aggregation (exec/sweep.hpp): run_sweep snapshots each
//     cell's metrics and merges them in cell order into a SweepMetrics
//     summary that is bit-identical for every --jobs value.
//
// Like pcm::audit and pcm::race, the plane is always compiled in and off at
// run time; while off, each hook costs one predictable branch.
// `--metrics` / `--trace-out=<file>` on the bench harness and pcmtool (or
// PCM_OBS=1 in the environment, or obs::set_enabled) turn collection on.

namespace pcm::obs {

/// Always true: every build compiles the plane in. Kept because the
/// figure-kernel benchmark (figbench/main.cpp) static_asserts it.
constexpr bool compiled_in() { return true; }

namespace detail {

inline std::atomic<bool>& flag() {
  static std::atomic<bool> on{[] {
    const char* env = std::getenv("PCM_OBS");
    return env != nullptr && env[0] != '\0' &&
           !(env[0] == '0' && env[1] == '\0');
  }()};
  return on;
}

}  // namespace detail

/// Should newly constructed machines collect metrics and spans?
inline bool enabled() { return detail::flag().load(std::memory_order_relaxed); }

/// Toggle collection for machines constructed afterwards.
inline void set_enabled(bool on) {
  detail::flag().store(on, std::memory_order_relaxed);
}

}  // namespace pcm::obs
