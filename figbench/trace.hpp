#pragma once

// pcm-lint:allow-file(determinism-taint)
// Spans carry host timestamps by design (timing.hpp); they are reported,
// never fed back into the simulation.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "machines/machine.hpp"

// The traced run's instruments, all on the benchmark's side of the library
// boundary:
//
//   - SpanLog: one span (name, start, end, parent) per call into a public
//     library entry point, kept in memory and written out at exit;
//   - build_machine(): the benchmark's machine factory. Untraced it is
//     machines::make_machine; traced it builds a TracedMachine — a
//     machines::Machine subclass assembled from the same parts as
//     src/machines/{maspar,gcel,cm5}.cpp whose router is a timing decorator
//     around the platform's own net::DeltaRouter / FatTree / MeshRouter;
//   - analyse(): per-layer host times, call percentiles and pattern reuse
//     from one traced pass's spans.

namespace figbench {

namespace machines = pcm::machines;
namespace net = pcm::net;
namespace obs = pcm::obs;
namespace sim = pcm::sim;

enum class SpanName : std::uint8_t {
  Setup,      // root: the workload's set-up phase
  Kernel,     // root: the timed phase (what wall_s measures)
  Replay,     // root: table1's traced replay of the exec cells
  MakeMachine,
  CalibrateMasPar,
  CalibrateGCel,
  CalibrateCM5,
  RunBitonic,
  MatmulBspUnstaggered,
  MatmulBspStaggered,
  MatmulMpBpram,
  RunSweep,
  Measure,    // exec's measure callback (wraps calibrate::calibrate)
  Resume,     // exec::run_sweep over a fully journalled sweep
  RouteDelta,
  RouteFatTree,
  RouteMesh,
  Drain,
  PatternHash,  // CommPattern::hash() of a delta route, after the route span
  Count_
};

[[nodiscard]] std::string_view to_string(SpanName n);

struct Span {
  SpanName name = SpanName::Setup;
  std::int32_t parent = -1;    ///< Index into the log; -1 for a root.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t pattern = 0;   ///< Route spans: CommPattern::hash().
  std::uint64_t messages = 0;  ///< Route spans: messages routed.
};

class SpanLog {
 public:
  /// Open a span as a child of the innermost open span; returns its index.
  std::size_t open(SpanName name, std::uint64_t pattern = 0,
                   std::uint64_t messages = 0);
  void close(std::size_t id);
  /// Record a route span's pattern hash once the span is closed.
  void set_pattern(std::size_t id, std::uint64_t hash) { spans_[id].pattern = hash; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Write every span as CSV (index,parent,name,start_ns,end_ns,pattern,
  /// messages). Returns false on an I/O error.
  [[nodiscard]] bool write_csv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null log makes it a no-op, which is how untraced passes run
/// the same code with no instrumentation.
class SpanScope {
 public:
  SpanScope(SpanLog* log, SpanName name) : log_(log) {
    if (log_ != nullptr) id_ = log_->open(name);
  }
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  std::size_t id_ = 0;
};

/// The benchmark's machine factory. With a log, the machine is a
/// TracedMachine that records its construction and every router call as
/// spans and counts into its obs::Metrics (observing on); without one it is
/// exactly machines::make_machine(spec).
std::unique_ptr<machines::Machine> build_machine(const machines::MachineSpec& spec,
                                                 SpanLog* log);

/// The calibrate span of a platform.
[[nodiscard]] SpanName calibrate_span(machines::Platform p);

/// Per-layer figures of one traced pass, keyed by per-layer metric name.
using LayerFigures = std::map<std::string, double>;

/// Host-time figures of the spans in [begin, end) — one traced pass. Router,
/// algos and exec figures cover the Kernel and Replay roots (the timed work
/// and table1's replay of it); machines.make_s and calibrate.*_s also cover
/// the Setup root, where fig05 calibrates and fig05/fig16 build machines.
[[nodiscard]] LayerFigures analyse(const SpanLog& log, std::size_t begin,
                                   std::size_t end);

/// Self time of every layer in the span tree of each root in [begin, end),
/// keyed "<root>/<layer>", plus "<root>/total" (the roots' durations). Used
/// to check that self times add up and to name the dominant layer.
[[nodiscard]] std::map<std::string, std::int64_t> self_times(
    const SpanLog& log, std::size_t begin, std::size_t end);

/// True when every span in [begin, end) is closed, lies inside its parent
/// and does not overlap its earlier siblings — what makes self times add up
/// to the root's duration.
[[nodiscard]] bool well_nested(const SpanLog& log, std::size_t begin,
                               std::size_t end);

}  // namespace figbench
