// tools/model_drift — the scaling-model drift gate.
//
// The wall-clock analogue is tools/perf_gate.py over BENCH_hotloop.json;
// this tool does the same for *asymptotic shape*: the checked-in
// MODELS_<machine>.json files pin the fitted scaling models of every drift
// probe (learn::drift_probes()), and CI re-derives the fits from the
// current tree and fails the build when a dominant exponent moves or the
// curves leave the agreement envelope.
//
// Usage:
//   model_drift --list
//       Print the probe registry (id, machine, expected dominant term,
//       whether the probe has a measured side).
//   model_drift --check FILE...
//       Check each baseline JSON against the current closed forms.
//       Exit 1 on any drift — this is the CI mode.
//   model_drift --write-baseline [--out DIR]
//       Regenerate MODELS_<machine>.json for all three machines (or the
//       one named with --machine) into DIR (default "."). Run this after
//       an *intentional* cost-model change and commit the diff.
//   model_drift --measure [--machine M] [--jobs N] [--quick]
//       Run the measured side of every probe that has one: an exec sweep
//       of the real simulator, fitted and compared against the closed
//       form on the dominant exponent (the envelope is off — the paper
//       itself reports constant-factor model error). Exit 1 on conflict.

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "learn/drift.hpp"

namespace {

using namespace pcm;

int usage(std::ostream& os, int code) {
  os << "usage: model_drift --list\n"
        "       model_drift --check FILE...\n"
        "       model_drift --write-baseline [--machine M] [--out DIR]\n"
        "       model_drift --measure [--machine M] [--jobs N] [--quick]\n";
  return code;
}

/// Strict whole-token non-negative integer, by the rule of bench_common.hpp's
/// detail::parse_number: std::from_chars must consume every character.
bool parse_jobs(const std::string& text, int* out) {
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, *out);
  return !text.empty() && ec == std::errc() && ptr == last && *out >= 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

int run_list() {
  for (const learn::DriftProbe& p : learn::drift_probes()) {
    const learn::ScalingModel model = learn::analytic_model(p);
    std::cout << p.machine << "  " << p.id << "\n"
              << "    expected dominant ~ n^" << p.expected.a;
    if (p.expected.b != 0) std::cout << " log^" << p.expected.b;
    std::cout << ", fitted " << model.to_string()
              << (p.has_measured() ? "  [analytic + measured]"
                                   : "  [analytic]")
              << "\n";
  }
  return 0;
}

int run_check(const std::vector<std::string>& files) {
  if (files.empty()) {
    std::cerr << "model_drift: --check needs at least one baseline file\n";
    return 2;
  }
  int drifted = 0;
  for (const std::string& file : files) {
    learn::Baseline baseline;
    try {
      baseline = learn::parse_baseline_json(read_file(file));
    } catch (const std::exception& e) {
      std::cerr << "model_drift: " << file << ": " << e.what() << "\n";
      return 2;
    }
    const auto verdicts = learn::check_baseline(baseline);
    if (verdicts.empty()) {
      std::cerr << "model_drift: " << file << ": machine '" << baseline.machine
                << "' has no probes in the registry\n";
      ++drifted;
      continue;
    }
    for (const learn::ProbeVerdict& pv : verdicts) {
      std::cout << (pv.drifted ? "DRIFT " : "ok    ") << baseline.machine
                << "/" << pv.probe << ": " << pv.verdict.detail << "\n";
      if (pv.drifted) ++drifted;
    }
  }
  if (drifted != 0) {
    std::cout << drifted
              << " probe(s) drifted. If the cost-model change is intentional, "
                 "regenerate the baselines with\n  model_drift "
                 "--write-baseline\nand commit the diff.\n";
    return 1;
  }
  std::cout << "all probes agree with the checked-in baselines\n";
  return 0;
}

int run_write(const std::string& machine_filter, const std::string& out_dir) {
  const std::vector<std::string> machines =
      machine_filter.empty()
          ? std::vector<std::string>{"maspar", "gcel", "cm5"}
          : std::vector<std::string>{machine_filter};
  for (const std::string& machine : machines) {
    const learn::Baseline baseline = learn::make_baseline(machine);
    const std::string path = out_dir + "/MODELS_" + machine + ".json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "model_drift: cannot write '" << path << "'\n";
      return 2;
    }
    out << learn::write_baseline_json(baseline);
    std::cout << "wrote " << path << " (" << baseline.entries.size()
              << " probes)\n";
  }
  return 0;
}

int run_measure(const std::string& machine_filter, int jobs, bool quick) {
  int conflicts = 0;
  int ran = 0;
  for (const learn::DriftProbe& p : learn::drift_probes()) {
    if (!p.has_measured()) continue;
    if (!machine_filter.empty() && p.machine != machine_filter) continue;
    ++ran;
    const learn::Verdict v = learn::measured_verdict(p, jobs, quick);
    std::cout << learn::to_string(v.agreement) << "  " << p.machine << "/"
              << p.id << ": " << v.detail << "\n";
    if (v.agreement == learn::Agreement::Conflict) ++conflicts;
  }
  if (ran == 0) {
    std::cerr << "model_drift: no measured probes match\n";
    return 2;
  }
  return conflicts == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { None, List, Check, Write, Measure };
  Mode mode = Mode::None;
  std::vector<std::string> files;
  std::string machine;
  std::string out_dir = ".";
  int jobs = 1;
  bool quick = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "model_drift: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--list") {
      mode = Mode::List;
    } else if (arg == "--check") {
      mode = Mode::Check;
    } else if (arg == "--write-baseline") {
      mode = Mode::Write;
    } else if (arg == "--measure") {
      mode = Mode::Measure;
    } else if (arg == "--machine") {
      machine = need_value("--machine");
    } else if (arg == "--out") {
      out_dir = need_value("--out");
    } else if (arg == "--jobs") {
      const std::string value = need_value("--jobs");
      if (!parse_jobs(value, &jobs)) {
        std::cerr << "model_drift: --jobs expects a non-negative integer "
                     "(0 = all hardware threads), got '"
                  << value << "'\n";
        return usage(std::cerr, 2);
      }
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "model_drift: unknown flag '" << arg << "'\n";
      return usage(std::cerr, 2);
    } else {
      files.push_back(arg);
    }
  }

  try {
    switch (mode) {
      case Mode::List: return run_list();
      case Mode::Check: return run_check(files);
      case Mode::Write: return run_write(machine, out_dir);
      case Mode::Measure: return run_measure(machine, jobs, quick);
      case Mode::None: return usage(std::cerr, 2);
    }
  } catch (const std::exception& e) {
    std::cerr << "model_drift: " << e.what() << "\n";
    return 2;
  }
  return 2;
}
