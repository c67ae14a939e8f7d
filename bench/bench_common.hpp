#pragma once

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "audit/audit.hpp"
#include "core/registry.hpp"
#include "fault/plan.hpp"
#include "obs/obs.hpp"
#include "obs/trace_export.hpp"
#include "race/race.hpp"
#include "core/series.hpp"
#include "core/validation.hpp"
#include "exec/sweep.hpp"
#include "machines/machine.hpp"
#include "report/table.hpp"
#include "sim/stats.hpp"

// Shared scaffolding for the figure/table reproduction binaries. Every bench
// prints: the experiment banner (with the paper's headline claim), a
// fixed-width table of measured (min/mean/max over trials) vs. each model's
// prediction with relative errors, an ASCII rendering of the figure, and —
// when PCM_RESULTS_DIR is set — a CSV dump.
//
// Every bench takes --quick (smaller sweeps), --audit (run with the
// invariant auditor on), --race (run with the superstep race detector on)
// and --fault=SPEC (deterministic fault injection, e.g.
// drop:rate=0.05:seed=7). Beyond those, a bench takes only the flags it
// acts on, named in its call to parse_env; any other flag is a usage
// error. The sweep benches take all of kSweepFlags: --trials=K, --jobs=N,
// --seed=S, --procs=P, --checkpoint=DIR / --resume (crash-safe journal +
// resumption), --metrics (superstep-resolved metric summary) and
// --trace-out=FILE (Chrome trace-event JSON of one representative cell).
// Sweeps run through the exec engine (exec/sweep.hpp): one fresh machine
// per (x, trial) cell, seeded per cell, so output is bit-identical at any
// --jobs value, and a SIGKILLed checkpointed sweep resumes to the same
// bytes.
//
// All numeric flag values are parsed strictly (std::from_chars): trailing
// garbage, signs where they make no sense, and out-of-range values are
// usage errors, never silent wraparound.

namespace pcm::bench {

// The sweep vocabulary lives in the engine; benches keep their old names.
using exec::Predictor;
using exec::SweepSpec;
using exec::TrialContext;

struct Env {
  bool quick = false;
  int trials = 0;         ///< 0 = use the bench's default.
  int jobs = 1;           ///< Sweep workers; 0 = one per hardware thread.
  std::uint64_t seed = 0; ///< 0 = use the bench's default seed.
  int procs = 0;          ///< 0 = the platform's Table 1 machine size.
  std::string checkpoint;   ///< Journal directory (empty = no journal).
  bool resume = false;      ///< Resume from the checkpoint journal.
  std::string trace_out;    ///< Chrome trace-event JSON path (empty = none).
  const char* argv0 = "";   ///< For usage errors found after parsing.
  std::string_view takes;   ///< The flags this bench takes (see parse_env).
};

/// The flags a bench that runs its sweep through apply_env takes, in the
/// form parse_env expects: flag names without "--", space-separated.
constexpr std::string_view kSweepFlags =
    "trials jobs seed procs checkpoint resume metrics trace-out";

namespace detail {

/// The flags every bench takes: the three planes act on every machine the
/// process builds, and --quick lets one command line run every bench.
constexpr std::string_view kCommonFlags = "quick audit race fault";

/// Each flag's usage text, in the order the usage message lists them.
struct FlagHelp {
  std::string_view name;
  std::string_view text;
};
constexpr FlagHelp kFlagHelp[] = {
    {"quick", "  --quick      run a smaller sweep\n"},
    {"trials", "  --trials=K   trials per data point (K > 0)\n"},
    {"jobs", "  --jobs=N     parallel sweep workers; 0 = all hardware threads\n"},
    {"seed", "  --seed=S     base seed for the deterministic per-cell streams\n"},
    {"procs",
     "  --procs=P    simulated machine size (P > 0); default is the\n"
     "               platform's Table 1 size (1024 MasPar, 64 others).\n"
     "               Workload sizes scale with it where the figure's\n"
     "               x-axis is per-processor\n"},
    {"audit",
     "  --audit      check runtime invariants (packet conservation,\n"
     "               occupancy leaks, clock monotonicity) as the\n"
     "               sweep runs\n"},
    {"race",
     "  --race       check BSP superstep ordering (no mailbox read\n"
     "               after its machine's reset()) as the sweep runs\n"},
    {"fault",
     "  --fault=SPEC inject deterministic faults; SPEC is\n"
     "               kind[:rate=R][:severity=X][:seed=S][:from=A][:to=B]\n"
     "               with kind one of drop, dup, dead-channel,\n"
     "               corrupt, straggler, barrier-stall\n"},
    {"checkpoint", "  --checkpoint=DIR     journal finished cells under DIR\n"},
    {"resume", "  --resume     skip cells already in the checkpoint journal\n"},
    {"metrics",
     "  --metrics    collect superstep-resolved metrics (packets,\n"
     "               waves, conflicts, queue peaks, barrier skew)\n"
     "               and print the sweep summary\n"},
    {"trace-out",
     "  --trace-out=FILE     write a Chrome trace-event JSON of one\n"
     "               representative cell (largest x, trial 0);\n"
     "               open in Perfetto or chrome://tracing\n"},
};

/// Strict whole-token numeric parse: no leading whitespace or '+', no
/// trailing garbage, range-checked by from_chars. Returns false on any of
/// those — the caller turns that into a usage error instead of accepting a
/// silently wrapped value.
template <typename T>
inline bool parse_number(std::string_view text, T* out) {
  if (text.empty()) return false;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last;
}

/// Is `name` one of the space-separated words of `list`?
inline bool listed(std::string_view name, std::string_view list) {
  const std::string padded = ' ' + std::string(list) + ' ';
  return !name.empty() && name.find(' ') == std::string_view::npos &&
         padded.find(' ' + std::string(name) + ' ') != std::string::npos;
}

/// Does a bench that takes `takes` (beyond kCommonFlags) take `name`?
inline bool takes_flag(std::string_view name, std::string_view takes) {
  return listed(name, kCommonFlags) || listed(name, takes);
}

}  // namespace detail

/// Print `error` (if any) and the usage text for the flags a bench takes,
/// then exit: 0 for --help, 2 for a usage error.
[[noreturn]] inline void usage(const char* argv0, std::string_view takes,
                               const std::string& error) {
  if (!error.empty()) std::cerr << argv0 << ": " << error << "\n";
  std::cerr << "usage: " << argv0 << " [flags]\n";
  for (const auto& f : detail::kFlagHelp) {
    if (detail::takes_flag(f.name, takes)) std::cerr << f.text;
  }
  std::exit(error.empty() ? 0 : 2);
}

/// Strict flag parser. `takes` lists the flags this bench acts on beyond
/// kCommonFlags (names without "--", space-separated; kSweepFlags for a
/// sweep bench). Any other flag, and any malformed value, is fatal.
inline Env parse_env(int argc, char** argv, std::string_view takes) {
  Env env;
  env.argv0 = argv[0];
  env.takes = takes;
  const auto fail = [&](const std::string& error) {
    usage(argv[0], takes, error);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(argv[0], takes, "");
    // "--trials=3" names the flag "trials"; a word without "--" names none.
    const std::string name =
        arg.rfind("--", 0) == 0 ? arg.substr(2, arg.find('=') - 2) : "";
    if (!detail::takes_flag(name, takes)) {
      fail("unknown flag '" + arg + "'");
    } else if (arg == "--quick") {
      env.quick = true;
    } else if (arg.rfind("--trials=", 0) == 0) {
      if (!detail::parse_number(arg.substr(9), &env.trials) ||
          env.trials <= 0) {
        fail("--trials expects a positive integer, got '" + arg + "'");
      }
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!detail::parse_number(arg.substr(7), &env.jobs) || env.jobs < 0) {
        fail("--jobs expects a non-negative integer, got '" + arg + "'");
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!detail::parse_number(arg.substr(7), &env.seed)) {
        fail("--seed expects an unsigned integer, got '" + arg + "'");
      }
    } else if (arg.rfind("--procs=", 0) == 0) {
      if (!detail::parse_number(arg.substr(8), &env.procs) || env.procs <= 0) {
        fail("--procs expects a positive integer, got '" + arg + "'");
      }
    } else if (arg.rfind("--fault=", 0) == 0) {
      try {
        fault::set_plan(fault::parse_fault_plan(arg.substr(8)));
      } catch (const std::invalid_argument& e) {
        fail(std::string("--fault: ") + e.what());
      }
    } else if (arg.rfind("--checkpoint=", 0) == 0) {
      env.checkpoint = arg.substr(13);
      if (env.checkpoint.empty()) {
        fail("--checkpoint expects a directory path");
      }
    } else if (arg == "--resume") {
      env.resume = true;
    } else if (arg == "--metrics") {
      obs::set_enabled(true);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      env.trace_out = arg.substr(12);
      if (env.trace_out.empty()) {
        fail("--trace-out expects a file path");
      }
    } else if (arg == "--audit") {
      audit::set_enabled(true);
    } else if (arg == "--race") {
      race::set_enabled(true);
    } else {
      fail("unknown flag '" + arg + "'");
    }
  }
  if (env.resume && env.checkpoint.empty()) {
    fail("--resume requires --checkpoint=DIR");
  }
  return env;
}

/// Build the bench's machine. A --procs=P its network cannot be built at
/// (the MasPar's delta network needs whole 16-PE clusters, a power of 4 of
/// them) exits 2 naming the flag, like any other bad flag value.
inline std::unique_ptr<machines::Machine> make_machine(
    const Env& env, const machines::MachineSpec& spec) {
  try {
    return machines::make_machine(spec);
  } catch (const std::invalid_argument& e) {
    usage(env.argv0, env.takes,
          "--procs=" + std::to_string(spec.resolved_procs()) + ": " + e.what());
  }
}

/// Exit 2 naming --procs unless `check` (a kernel's size rule that throws
/// std::invalid_argument, e.g. algos::check_bitonic_procs) accepts `procs`.
inline void require_procs(const Env& env, void (*check)(int), int procs) {
  try {
    check(procs);
  } catch (const std::invalid_argument& e) {
    usage(env.argv0, env.takes,
          "--procs=" + std::to_string(procs) + ": " + e.what());
  }
}

/// Fill the engine-facing fields of a SweepSpec from the parsed flags: the
/// per-cell machine recipe, worker count, base seed (seed also becomes the
/// calibration-machine seed, keeping the whole bench one seed family), and
/// the checkpoint journal.
inline void apply_env(SweepSpec& spec, const Env& env,
                      const machines::MachineSpec& machine) {
  spec.machine = machine;
  if (env.procs > 0) spec.machine.procs = env.procs;
  spec.jobs = env.jobs;
  spec.seed = machine.seed;
  if (env.trials > 0) spec.trials = env.trials;
  spec.checkpoint_dir = env.checkpoint;
  spec.resume = env.resume;
  spec.trace_out = env.trace_out;
}

/// Print everything for one experiment. `scale` converts µs to the unit in
/// y_label (e.g. 1e-3 for ms).
inline void report(const core::ValidationSeries& s, double scale = 1.0,
                   bool log_x = false, bool log_y = false, int precision = 1) {
  const auto* exp = core::find_experiment(s.experiment);
  if (exp != nullptr) {
    report::banner(std::cout, exp->id + ": " + exp->title + " [" + exp->platform + "]",
                   "paper: " + exp->headline);
  } else {
    report::banner(std::cout, s.experiment);
  }
  core::print_series(std::cout, s, scale, precision);
  core::plot_series(std::cout, s, log_x, log_y);
  core::csv_series(s);
}

/// Report a full sweep result: the series as above, then the failure ledger
/// (cell-index order — deterministic across --jobs like everything else).
inline void report(const exec::SweepResult& r, double scale = 1.0,
                   bool log_x = false, bool log_y = false, int precision = 1) {
  report(r.series, scale, log_x, log_y, precision);
  if (!r.metrics.empty()) {
    obs::print_metrics(std::cout, r.metrics);
  }
  if (r.cells_resumed > 0) {
    std::cerr << r.series.experiment << ": resumed " << r.cells_resumed << "/"
              << r.cells_total << " cells from the checkpoint journal\n";
  }
  if (!r.failures.empty()) {
    std::cout << "cell failures (" << r.failures.size() << " of "
              << r.cells_total << " cells):\n";
    for (const auto& f : r.failures) {
      std::cout << "  cell " << f.cell << "  x=" << f.x << " trial=" << f.trial
                << " [" << f.kind << "] " << f.message << "\n";
    }
  }
}

}  // namespace pcm::bench
