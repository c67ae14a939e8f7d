#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.hpp"

// The per-machine metrics registry of the observability plane (see
// obs/obs.hpp for the subsystem overview).
//
// Metrics are *named* process-globally and *counted* per machine. A metric
// is registered once — register_metric(name, kind) returns a dense
// MetricId — and every Machine owns a Metrics instance holding that
// metric's per-machine state. All quantities are simulated (packets, bytes,
// waves, µs of skew), never wall-clock, so snapshots are deterministic and
// the exec engine can merge them in cell order into a jobs-independent
// SweepMetrics.
//
// Registration happens at namespace scope in .cpp files only (the pcm-lint
// `metric-in-header` rule enforces this): a registration in a header runs
// once per translation unit that includes it, and whether the duplicate is
// benign then depends on include graphs — exactly the kind of spooky
// action the registry must not be exposed to.
//
// Disabled cost: a Metrics defaults to off and empty; every mutator is a
// single predictable branch on `on_` before touching storage, and storage
// is only allocated on first enable.

namespace pcm::obs {

enum class MetricKind { Counter, Gauge, Histogram };

[[nodiscard]] std::string_view to_string(MetricKind k);

/// Dense index into the process-global metric registry.
using MetricId = std::size_t;

/// Register a metric in the process-global registry and return its id.
/// Idempotent: re-registering the same name with the same kind returns the
/// existing id; a kind mismatch throws std::invalid_argument. Thread-safe.
/// Call from namespace scope in a .cpp file, never from a header.
[[nodiscard]] MetricId register_metric(std::string_view name, MetricKind kind);

/// Number of metrics registered so far.
[[nodiscard]] std::size_t registry_size();
/// Name / kind of a registered metric (by value: the registry may grow
/// concurrently). Throws std::out_of_range on an unknown id.
[[nodiscard]] std::string metric_name(MetricId id);
[[nodiscard]] MetricKind metric_kind(MetricId id);

/// The built-in metric set every machine carries. Grouped here so hook
/// sites share one registration point (in metrics.cpp).
struct Builtin {
  MetricId exchanges;       ///< Counter: communication steps executed.
  MetricId packets;         ///< Counter: messages handed to the router.
  MetricId bytes;           ///< Counter: payload bytes handed to the router.
  MetricId barriers;        ///< Counter: barriers executed.
  MetricId barrier_skew_us; ///< Histogram: max-min clock spread at barrier entry (µs).
  MetricId delta_waves;     ///< Counter: MasPar delta-network wave total.
  MetricId delta_conflicts; ///< Counter: circuits deferred to a later wave.
  MetricId delta_waves_per_exchange;  ///< Histogram: waves of each routed step.
  MetricId fat_tree_port_queue_peak;  ///< Gauge: deepest CM-5 ejection-port queue.
  MetricId mesh_recv_backlog_peak;    ///< Gauge: deepest GCel receive backlog.
  MetricId parcels;         ///< Counter: runtime parcels staged for delivery.
  MetricId payload_bytes;   ///< Counter: runtime payload bytes delivered.
};

/// The process-wide Builtin ids (registered on first use).
[[nodiscard]] const Builtin& builtin();

/// Per-metric histogram state: log2 buckets (bucket i counts observations v
/// with bit_width(v) == i, i.e. bucket 0 holds v == 0, bucket i holds
/// 2^(i-1) <= v < 2^i), plus exact count/sum/max.
struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, 64 + 1> buckets{};

  friend bool operator==(const HistogramData&, const HistogramData&) = default;
};

/// One metric's state in a snapshot. Entries compare exactly — integer
/// quantities only — which is what the golden tests and the jobs-identity
/// tests rely on.
struct SnapshotEntry {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t value = 0;  ///< Counter total or gauge peak.
  HistogramData hist;       ///< Histogram kinds only.

  friend bool operator==(const SnapshotEntry&, const SnapshotEntry&) = default;
};

/// An ordered (by name) copy of every *touched* metric of one Metrics
/// instance. Merging is associative and, applied in cell order, gives the
/// engine its jobs-independent aggregate.
struct MetricsSnapshot {
  std::vector<SnapshotEntry> entries;  ///< Sorted by name.

  [[nodiscard]] bool empty() const { return entries.empty(); }
  /// Entry by name, or nullptr.
  [[nodiscard]] const SnapshotEntry* find(std::string_view name) const;
  /// Fold `other` in: counters/histograms add, gauges take the max.
  void merge(const MetricsSnapshot& other);

  friend bool operator==(const MetricsSnapshot&, const MetricsSnapshot&) = default;
};

/// Serialise a snapshot as one space-free token (metric names never contain
/// spaces, '=' or ';'), suitable for a checkpoint-journal column: entries
/// joined by ';', each `name=c:<v>` / `g:<v>` / `h:<count>:<sum>:<max>
/// [:i.v,...]` with only non-zero histogram buckets listed. Empty snapshot
/// encodes to "". This is how per-cell metrics survive --resume: a decoded
/// snapshot compares equal to the original, so a resumed sweep's merged
/// SweepMetrics stay bit-identical to an uninterrupted run.
[[nodiscard]] std::string encode_metrics_snapshot(const MetricsSnapshot& snap);

/// Inverse of encode_metrics_snapshot. A malformed token decodes to an
/// empty snapshot (the cell simply contributes no metrics) — journal
/// checksums make silent corruption here a non-event, not a crash.
[[nodiscard]] MetricsSnapshot decode_metrics_snapshot(std::string_view token);

/// The exec-level aggregate run_sweep produces: per-cell snapshots merged
/// serially in cell order.
struct SweepMetrics {
  std::size_t cells = 0;  ///< Cells that contributed a snapshot.
  MetricsSnapshot totals;

  [[nodiscard]] bool empty() const { return totals.empty(); }

  friend bool operator==(const SweepMetrics&, const SweepMetrics&) = default;
};

/// Per-machine metric state. Off (and unallocated) by default; the owning
/// machine flips it on when the plane is enabled. Mutators are no-ops while
/// off — hot call sites should still pre-check on() before computing
/// arguments.
class Metrics {
 public:
  [[nodiscard]] bool on() const { return on_; }
  void set_on(bool on);

  /// Counter: add `delta`.
  void add(MetricId id, std::uint64_t delta = 1);
  /// Gauge: raise the recorded peak to at least `v`.
  void peak(MetricId id, std::uint64_t v);
  /// Histogram: record one observation of `v`.
  void observe(MetricId id, std::uint64_t v);

  /// Counter total / gauge peak (0 if never touched).
  [[nodiscard]] std::uint64_t value(MetricId id) const;
  /// Histogram state (zeroed if never touched).
  [[nodiscard]] HistogramData histogram(MetricId id) const;

  /// Ordered copy of every touched metric.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zero all state (keeps the on/off setting).
  void clear();

 private:
  void ensure(MetricId id);

  bool on_ = false;
  std::vector<std::uint64_t> scalars_;   ///< By MetricId; counters & gauges.
  std::vector<HistogramData> hists_;     ///< By MetricId; histograms only.
  std::vector<bool> touched_;            ///< By MetricId.
};

}  // namespace pcm::obs
