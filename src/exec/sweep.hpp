#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "core/series.hpp"
#include "exec/checkpoint.hpp"
#include "exec/progress.hpp"
#include "fault/plan.hpp"
#include "machines/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "race/race.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

// The deterministic parallel experiment engine. A sweep is a grid of
// (x, trial) cells; every cell runs on its OWN freshly constructed machine,
// seeded by a per-cell split of the sweep's base seed:
//
//   cell_seed(c) = Rng(base_seed).split(c)   with c = x_index * trials + trial
//
// Rng::split is a pure function of (state, key), so a cell's seed — and
// therefore its entire simulation — depends only on the sweep definition,
// never on which worker ran it or in what order. That is the determinism
// contract: run_sweep(spec) is bit-identical for every jobs value.
//
// Machines are per-cell rather than shared precisely to make that hold: a
// shared Machine's RNG stream would thread through cells in completion
// order, welding the results to the schedule.
//
// Resilience (this file's second job): a throwing cell — an AuditError, a
// RaceError, a fault-plan-provoked failure — is caught at the cell boundary
// and recorded as a CellFailure instead of tearing down the sweep. A cell
// runs once: the simulation is deterministic, so a second run of the same
// cell would fail the same way. With a checkpoint directory configured every
// finished cell is journalled (crash-safe, append-only), and a killed sweep
// resumed with resume=true skips journalled cells and reassembles
// bit-identical output.

namespace pcm::exec {

struct Predictor {
  std::string model;
  std::function<double(double)> fn;  ///< x -> predicted µs
};

/// Everything a measure callback may touch: a machine freshly built for
/// this one cell, the cell's coordinates, and the cell's seed (for any
/// additional randomness, e.g. input-data generation).
struct TrialContext {
  machines::Machine& machine;
  double x = 0.0;
  int trial = 0;
  std::uint64_t cell_seed = 0;
};

/// One cell whose measure threw. Failures are reported in cell-index order
/// — like everything the engine emits, independent of the schedule that
/// produced them.
struct CellFailure {
  std::size_t cell = 0;
  double x = 0.0;
  int trial = 0;
  std::string kind;     ///< "audit", "race", "exception", ...
  std::string message;  ///< One-line diagnostic.
};

struct SweepSpec {
  std::string experiment;  ///< Registry id, e.g. "fig12".
  std::string x_label;
  std::string y_label = "time";
  machines::MachineSpec machine;  ///< Recipe for the per-cell machines.
  std::vector<double> xs;
  int trials = 1;
  int jobs = 1;            ///< Worker count; <= 0 means one per hardware thread.
  std::uint64_t seed = 0;  ///< Base seed for the cell stream; 0 = machine.seed.
  std::function<double(TrialContext&)> measure;  ///< cell -> µs
  std::vector<Predictor> predictors;

  // --- checkpoint journal --------------------------------------------------
  std::string checkpoint_dir;   ///< Journal directory; empty = no journal.
  bool resume = false;          ///< Skip cells already journalled.

  // --- observability (pcm::obs) --------------------------------------------
  /// Write a Chrome trace-event JSON of one representative cell (largest x,
  /// trial 0) to this path. Empty = no trace. Forces observability on for
  /// that cell; resumed (journalled) cells cannot be re-traced.
  std::string trace_out;

  [[nodiscard]] std::size_t resolved_trials() const {
    return trials > 0 ? static_cast<std::size_t>(trials) : 1;
  }
  [[nodiscard]] std::size_t cell_count() const {
    return xs.size() * resolved_trials();
  }
};

/// What a sweep produces: the measured series plus the failure ledger.
struct SweepResult {
  core::ValidationSeries series;
  std::vector<CellFailure> failures;  ///< Cell-index order.
  std::size_t cells_total = 0;
  std::size_t cells_resumed = 0;  ///< Cells skipped via a resumed journal.
  /// Per-cell metric snapshots merged serially in cell order — like every
  /// engine output, bit-identical at any jobs value. Empty unless the
  /// observability plane was on (obs::enabled() or spec.trace_out).
  obs::SweepMetrics metrics;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

namespace detail {

/// The identity header a checkpoint journal is keyed on: everything that
/// changes a cell's outcome. Two sweeps agreeing on this string would write
/// identical journals cell-for-cell. Deliberately excludes jobs — that
/// changes *who* runs a cell, never what it computes.
inline std::string journal_header(const SweepSpec& spec) {
  std::string h = "exp=" + spec.experiment +
                  " machine=" + machines::to_string(spec.machine) +
                  " y=" + spec.y_label +
                  " xs=" + std::to_string(spec.xs.size()) +
                  " trials=" + std::to_string(spec.trials) +
                  " seed=" + std::to_string(spec.seed);
  const auto plan = fault::active_plan();
  h += " fault=" + (plan ? fault::to_string(*plan) : std::string("none"));
  return h;
}

/// Per-cell outcome slot: workers write disjoint entries, assembly reads
/// them serially in cell order afterwards.
struct CellState {
  bool done = false;
  bool ok = false;
  double us = 0.0;
  std::string kind;
  std::string message;
  obs::MetricsSnapshot snapshot;  ///< Touched metrics; empty when obs off.
};

/// The one representative cell that carries an exported trace.
struct TraceCapture {
  std::string machine_name;
  std::vector<obs::Span> spans;
};

/// The sweep's per-cell seed root.
inline sim::Rng seed_root(const SweepSpec& spec) {
  return sim::Rng(spec.seed != 0 ? spec.seed : spec.machine.seed);
}

/// Run cell `c` once into `st`. Every worker of run_sweep funnels through
/// here, so a cell's outcome is a pure function of (spec, c) no matter which
/// thread computed it. `capture` (nullable) receives the trace spans when
/// `c == trace_cell` and tracing is requested.
inline void run_cell(const SweepSpec& spec, const sim::Rng& root,
                     std::size_t c, bool tracing, std::size_t trace_cell,
                     std::optional<TraceCapture>* capture, CellState& st) {
  const std::size_t trials = spec.resolved_trials();
  const double x = spec.xs[c / trials];
  const int trial = static_cast<int>(c % trials);
  const std::uint64_t cell_seed = root.split(c).next_u64();
  const bool traced = tracing && c == trace_cell;
  st.done = true;
  try {
    machines::MachineSpec mspec = spec.machine;
    mspec.seed = cell_seed;
    const auto machine = machines::make_machine(mspec);
    if (traced) machine->set_observing(true);
    TrialContext ctx{*machine, x, trial, cell_seed};
    st.us = spec.measure(ctx);
    if (machine->metrics().on()) st.snapshot = machine->metrics().snapshot();
    if (traced && capture != nullptr) {
      capture->emplace(TraceCapture{
          std::string(machine->name()),
          machine->spans().tiled(machine->now(), machine->superstep())});
    }
    st.ok = true;
  } catch (const audit::AuditError& e) {
    st.kind = "audit";
    st.message = e.what();
  } catch (const race::RaceError& e) {
    st.kind = "race";
    st.message = e.what();
  } catch (const std::exception& e) {
    st.kind = "exception";
    st.message = e.what();
  } catch (...) {
    st.kind = "unknown";
    st.message = "non-standard exception escaped measure()";
  }
}

/// A finished cell as its journal record (the snapshot rides along encoded,
/// so a resumed sweep reassembles metrics too).
inline JournalEntry journal_entry_of(std::size_t c, const CellState& st) {
  return JournalEntry{c, st.ok, st.us, st.kind, st.message,
                      obs::encode_metrics_snapshot(st.snapshot)};
}

/// The inverse of journal_entry_of: a journal record back into a state slot.
inline CellState state_from_entry(const JournalEntry& e) {
  CellState st;
  st.done = true;
  st.ok = e.ok;
  st.us = e.us;
  st.kind = e.kind;
  st.message = e.message;
  st.snapshot = obs::decode_metrics_snapshot(e.obs);
  return st;
}

/// Serial, cell-order assembly of the result from a fully populated state
/// vector: statistics, failure ledger, predictions, metric totals.
/// Identical states in, byte-identical SweepResult out — whether a state
/// was computed in this run or loaded from a resumed journal.
inline void assemble(const SweepSpec& spec,
                     const std::vector<CellState>& state, SweepResult* out) {
  core::ValidationSeries& s = out->series;
  const std::size_t trials = spec.resolved_trials();
  // Assembly is serial and in cell order, so the statistics (and any
  // floating-point accumulation inside them) are independent of scheduling.
  // Failed cells contribute nothing; an x whose every trial failed yields an
  // empty (zeroed) summary.
  for (std::size_t xi = 0; xi < spec.xs.size(); ++xi) {
    sim::Accumulator acc;
    for (std::size_t t = 0; t < trials; ++t) {
      const CellState& st = state[xi * trials + t];
      if (st.ok) acc.add(st.us);
    }
    s.points.push_back({spec.xs[xi], acc.summary()});
  }
  for (std::size_t c = 0; c < state.size(); ++c) {
    const CellState& st = state[c];
    if (st.ok) continue;
    out->failures.push_back(CellFailure{c, spec.xs[c / trials],
                                        static_cast<int>(c % trials), st.kind,
                                        st.message});
  }
  for (const auto& p : spec.predictors) {
    core::PredictedSeries pred{p.model, {}};
    for (const double x : spec.xs) pred.ys.push_back(p.fn(x));
    s.predictions.push_back(std::move(pred));
  }
  // Metric aggregation follows the same rule as the statistics above:
  // serial, in cell order, so the totals are independent of scheduling.
  for (const CellState& st : state) {
    if (st.snapshot.empty()) continue;
    out->metrics.totals.merge(st.snapshot);
    ++out->metrics.cells;
  }
}

/// Report journal corruption to the operator: the cells re-run anyway, but
/// skipped lines are data loss worth a visible trace.
inline void warn_corrupt_lines(const std::string& path, std::size_t lines) {
  if (lines == 0) return;
  std::cerr << "checkpoint: skipped " << lines << " corrupt journal line"
            << (lines == 1 ? "" : "s") << " in '" << path
            << "' (affected cells will re-run)\n";
}

}  // namespace detail

inline SweepResult run_sweep(const SweepSpec& spec) {
  SweepResult out;
  core::ValidationSeries& s = out.series;
  s.experiment = spec.experiment;
  s.x_label = spec.x_label;
  s.y_label = spec.y_label;

  const std::size_t trials = spec.resolved_trials();
  const std::size_t cells = spec.cell_count();
  out.cells_total = cells;
  const sim::Rng root = detail::seed_root(spec);

  std::vector<detail::CellState> state(cells);

  // One representative cell carries the exported trace: the largest x at
  // trial 0 — the cell a reader of the figure would zoom into first. Only
  // that cell's machine gets observability force-enabled, so a --trace-out
  // run perturbs nothing else.
  const bool tracing = !spec.trace_out.empty() && !spec.xs.empty();
  const std::size_t trace_cell = tracing ? (spec.xs.size() - 1) * trials : 0;
  std::optional<detail::TraceCapture> capture;  // written by at most one cell

  std::optional<CheckpointJournal> journal;
  if (!spec.checkpoint_dir.empty()) {
    journal.emplace(spec.checkpoint_dir, spec.experiment,
                    detail::journal_header(spec), spec.resume);
    detail::warn_corrupt_lines(journal->path(), journal->corrupt_lines());
    for (const auto& [cell, e] : journal->loaded()) {
      if (cell >= cells) continue;  // stale tail from a shrunk definition
      state[cell] = detail::state_from_entry(e);
      ++out.cells_resumed;
    }
  }

  std::vector<std::size_t> pending;
  pending.reserve(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    if (!state[c].done) pending.push_back(c);
  }

  // The calling thread is always a worker, and min(jobs, pending) - 1
  // threads join it: each claims the next pending index from one cursor, so
  // --jobs=1 starts no thread and no sweep starts more threads than it has
  // cells to run. An exception a cell lets escape is stored at its index.
  ProgressReporter progress(std::cerr, spec.experiment, pending.size());
  std::vector<std::exception_ptr> escaped(pending.size());
  std::atomic<std::size_t> cursor{0};
  const auto work = [&] {
    for (std::size_t i = cursor++; i < pending.size(); i = cursor++) {
      const std::size_t c = pending[i];
      try {
        detail::run_cell(spec, root, c, tracing, trace_cell, &capture,
                         state[c]);
        if (journal) journal->append(detail::journal_entry_of(c, state[c]));
        progress.cell_done(spec.xs[c / trials], static_cast<int>(c % trials));
      } catch (...) {
        escaped[i] = std::current_exception();
      }
    }
  };
  {
    const std::size_t jobs =
        spec.jobs > 0 ? static_cast<std::size_t>(spec.jobs)
                      : std::max(1u, std::thread::hardware_concurrency());
    const std::size_t threads = std::min(jobs, pending.size());
    std::vector<std::jthread> helpers;
    helpers.reserve(threads);
    for (std::size_t t = 1; t < threads; ++t) {
      try {
        helpers.emplace_back(work);
      } catch (const std::system_error&) {
        break;  // the threads already running share the remaining cells
      }
    }
    work();
  }  // the helpers join here, before any slot is read
  // An exception that escaped even run_cell (progress/journal I/O,
  // bad_alloc while classifying, ...) is an engine failure — still recorded
  // rather than rethrown, so one broken cell cannot sink the sweep.
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (!escaped[i]) continue;
    detail::CellState& st = state[pending[i]];
    st.done = true;
    st.ok = false;
    if (st.kind.empty()) st.kind = "engine";
    try {
      std::rethrow_exception(escaped[i]);
    } catch (const std::exception& e) {
      st.message = e.what();
    } catch (...) {
      st.message = "non-standard exception escaped the cell runner";
    }
  }

  detail::assemble(spec, state, &out);
  if (capture) {
    obs::write_chrome_trace(spec.trace_out, capture->machine_name,
                            capture->spans);
  }
  return out;
}

}  // namespace pcm::exec
