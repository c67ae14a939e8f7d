#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "trace.hpp"

// The three figure kernels. Each workload is built once per process from the
// workload seed (keys, matrices and machine seeds all derive from it; the
// library only ever sees the generated inputs) and then runs any number of
// identical passes. A pass is one set-up followed by one kernel — the timed
// phase — and returns what the caller needs to time, check and report it.

namespace figbench {

/// Output checks, counted as operations. A wrong answer is a failed
/// operation, never a crash.
struct Checks {
  long attempted = 0;
  long failed = 0;
  /// Count one check; report it on stderr when it fails.
  void expect(bool ok, std::string_view what);
};

struct PassResult {
  std::int64_t setup_ns = 0;
  std::int64_t kernel_ns = 0;
  /// FNV-1a digest of every simulated µs, output and fitted parameter.
  std::uint64_t digest = 0;
  /// The reproduction's error against the paper's hardware measurements.
  double paper_err_pct = 0.0;
  /// Counters of the kernel's machines (empty unless observing was on).
  obs::MetricsSnapshot counters;
  /// Per-layer figures the workload knows without spans (exec.cells, ...).
  std::map<std::string, double> figures;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up + kernel pass. `log` is null for an untraced pass; when set,
  /// machines are TracedMachines and every library call is a span.
  virtual PassResult pass(SpanLog* log, Checks& checks) = 0;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build a workload, or return nullptr for an unknown name. `scratch` is a
/// writable directory (table1 keeps its checkpoint journals there).
std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed,
                                        const std::string& scratch);

}  // namespace figbench
