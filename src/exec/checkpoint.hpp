#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

// CheckpointJournal: the crash-safe persistence behind --checkpoint/--resume.
//
// One journal file per sweep, append-only, one line per finished cell. The
// format (v3) prefixes every record with an FNV-1a 64 checksum of the rest
// of the line:
//
//   pcm-sweep-journal v3 <sweep identity header>
//   <fnv16> cell <idx> ok <hexfloat µs> [obs <token>]
//   <fnv16> cell <idx> fail <kind> <one-line message>
//
// Appends are flushed line-at-a-time, so a SIGKILL loses at most the cell
// that was mid-write — a torn *final* line is detected and silently ignored
// on resume. The checksum extends that protection to the journal's
// interior: a line corrupted in place (bit rot, a concurrent writer gone
// wrong, a partial block flush) no longer has to *look* torn to be caught —
// it fails its checksum, is skipped, and is *reported* through
// corrupt_lines() instead of silently re-interpreted.
//
// Measurements are serialised as hexfloat (%a), which round-trips a double
// exactly; a resumed sweep therefore reassembles byte-identical output from
// journalled cells, the property the kill_resume_fig11 ctest asserts with
// cmp. `ok` records may carry an opaque `obs <token>` field — the cell's
// encoded metrics snapshot (obs/metrics.hpp) — so a resumed sweep
// reassembles SweepResult::metrics too, not just the series.
//
// The filename embeds a hash of the identity header (experiment, machine,
// axis, trials, seed, fault plan), so a bench that runs
// several sweeps into the same --checkpoint directory gets one journal
// each, and resuming against a journal from a *different* sweep definition
// is refused instead of silently mixing results.

namespace pcm::exec {

/// One journal record: the outcome of one cell.
struct JournalEntry {
  std::size_t cell = 0;
  bool ok = false;
  double us = 0.0;      ///< Measured value; meaningful only when ok.
  std::string kind;     ///< Failure classification when !ok.
  std::string message;  ///< One-line failure message when !ok.
  std::string obs;      ///< Opaque encoded metrics snapshot (ok records
                        ///< only; empty when observability was off).
};

class CheckpointJournal {
 public:
  /// Open the journal for the sweep identified by `header` inside `dir`
  /// (created if missing). With resume=false any previous journal for this
  /// sweep is truncated; with resume=true its entries are loaded (torn
  /// trailing line ignored, corrupt interior lines skipped and counted) and
  /// appending continues. Throws std::runtime_error on I/O failure or a
  /// resume header mismatch.
  CheckpointJournal(const std::string& dir, const std::string& experiment,
                    const std::string& header, bool resume);

  /// Cells loaded from a resumed journal, keyed by cell index (empty for a
  /// fresh journal). Later duplicates win.
  [[nodiscard]] const std::map<std::size_t, JournalEntry>& loaded() const {
    return loaded_;
  }

  /// Interior lines skipped as corrupt while resuming (0 for a fresh
  /// journal). The engine reports these — a corrupt line is data loss the
  /// user should know about, even though the cell simply re-runs.
  [[nodiscard]] std::size_t corrupt_lines() const { return corrupt_lines_; }

  /// Append one finished cell and flush. Thread-safe.
  void append(const JournalEntry& entry);

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::mutex mu_;
  std::map<std::size_t, JournalEntry> loaded_;
  std::size_t corrupt_lines_ = 0;
};

}  // namespace pcm::exec
