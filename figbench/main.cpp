// pcm-lint:allow-file(determinism-taint)
// The benchmark reads host time (timing.hpp) to pace its loop;
// host time never reaches a simulated quantity, output or digest.
//
// figbench: the figure-kernel benchmark. One process runs one workload:
//
//   figbench --workload W --seed N --seconds S --trace 0|1 --scratch DIR
//
// Every run has one untimed reference pass with the counters on; every other
// pass must reproduce its digest. --trace 0 runs timed passes with every
// plane off for S seconds and reports the end-to-end metrics as medians;
// --trace 1 alternates untraced and traced passes and reports the per-layer
// metrics. The last stdout line is one JSON object.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "obs/obs.hpp"
#include "race/race.hpp"
#include "sim/stats.hpp"
#include "timing.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace figbench {
namespace {

namespace audit = pcm::audit;
namespace race = pcm::race;

static_assert(audit::compiled_in() && race::compiled_in() && obs::compiled_in(),
              "figbench measures the tier-1 build: every plane compiled in");

constexpr std::size_t kMinTimedPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  long seconds = 0;
  int trace = -1;
  std::string scratch;
};

void usage() {
  std::cerr << "usage: figbench --workload W --seed N --seconds S --trace 0|1 "
               "--scratch DIR\n  workloads:";
  for (const auto& w : workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
}

bool parse_uint(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 19) {
    return false;
  }
  *out = std::stoull(text);
  return true;
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  std::uint64_t seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return std::nullopt;
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      if (!parse_uint(value, &a.seed)) return std::nullopt;
      have_seed = true;
    } else if (key == "--seconds") {
      if (!parse_uint(value, &seconds) || seconds < 1 || seconds > 3600) {
        return std::nullopt;
      }
    } else if (key == "--trace") {
      if (!parse_uint(value, &trace) || trace > 1) return std::nullopt;
    } else if (key == "--scratch") {
      a.scratch = value;
    } else {
      return std::nullopt;
    }
  }
  if (a.workload.empty() || !have_seed || seconds == 0 || trace > 1 ||
      a.scratch.empty()) {
    return std::nullopt;
  }
  a.seconds = static_cast<long>(seconds);
  a.trace = static_cast<int>(trace);
  return a;
}

/// Peak resident memory of this process image, or 0 when unknown. VmHWM,
/// not getrusage(): Linux carries ru_maxrss across execve, so it would
/// report the launching process's peak whenever that is the larger one.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::uint64_t counter(const obs::MetricsSnapshot& s, std::string_view name) {
  const auto* e = s.find(name);
  return e != nullptr ? e->value : 0;
}

/// One pass with exceptions turned into a failed operation.
std::optional<PassResult> run_pass(Workload& w, SpanLog* log, Checks& checks) {
  try {
    return w.pass(log, checks);
  } catch (const std::exception& e) {
    checks.expect(false, std::string("pass threw: ") + e.what());
  }
  return std::nullopt;
}

/// A pass with the observability plane on for the machines it constructs
/// (exec's per-cell machines included).
std::optional<PassResult> observed_pass(Workload& w, SpanLog* log,
                                        Checks& checks) {
  obs::set_enabled(true);
  auto r = run_pass(w, log, checks);
  obs::set_enabled(false);
  return r;
}

/// The reproduction is deterministic: every pass must match the reference
/// pass in its digest (and, where counters were on, in its counters).
void check_same(const PassResult& r, const PassResult& ref, bool counters,
                const char* what, Checks& checks) {
  checks.expect(r.digest == ref.digest,
                std::string(what) + ": digest equals the reference pass's");
  if (counters) {
    checks.expect(r.counters == ref.counters,
                  std::string(what) + ": counters equal the reference pass's");
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              checks.failed == 0 ? "true" : "false", checks.attempted,
              checks.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_table(const std::vector<Metric>& metrics, std::size_t samples) {
  std::printf("%-34s %22s  %-8s %s\n", "metric", "value", "unit", "samples");
  for (const auto& m : metrics) {
    std::printf("%-34s %22.9g  %-8s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), samples);
  }
}

// --- --trace 0: the end-to-end metrics -------------------------------------

int run_untraced(const Args& a, Workload& w, const PassResult& ref,
                 std::vector<PassResult> passes, double rss_mb,
                 Checks& checks) {
  const std::int64_t start = host_ns();
  std::size_t attempts = passes.size();
  while (attempts < kMinTimedPasses || ns_to_s(host_ns() - start) < a.seconds) {
    ++attempts;
    if (auto r = run_pass(w, nullptr, checks)) passes.push_back(std::move(*r));
  }
  std::vector<double> wall, setup;
  for (const auto& r : passes) {
    check_same(r, ref, false, "timed pass", checks);
    wall.push_back(ns_to_s(r.kernel_ns));
    setup.push_back(ns_to_s(r.setup_ns));
  }
  std::fprintf(stderr, "wall_s per pass:");
  for (const double v : wall) std::fprintf(stderr, " %.4f", v);
  std::fprintf(stderr, "\nsetup_s per pass:");
  for (const double v : setup) std::fprintf(stderr, " %.6f", v);
  std::fprintf(stderr, "\n");
  const double wall_s = sim::summarize(wall).median;
  const double packets = static_cast<double>(counter(ref.counters, "machine.packets"));
  checks.expect(packets > 0, "reference pass counted machine.packets");
  const std::vector<Metric> metrics = {
      {"wall_s", wall_s, "s"},
      {"setup_s", sim::summarize(setup).median, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"sim_msgs_per_s", wall_s > 0 ? packets / wall_s : 0.0, "msg/s"},
      {"paper_err_pct", ref.paper_err_pct, "%"},
  };
  checks.expect(rss_mb > 0, "peak_rss_mb read from VmHWM in /proc/self/status");
  print_table(metrics, wall.size());
  std::printf("operations: attempted %ld, failed %ld\n", checks.attempted,
              checks.failed);
  print_result(checks, metrics);
  return 0;
}

// --- --trace 1: the per-layer metrics --------------------------------------

/// Every per-layer metric, in BENCHMARK.json order. A layer a workload does
/// not touch reports 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"algos.bitonic_s", "s"},
    {"algos.matmul_bsp_unstaggered_s", "s"},
    {"algos.matmul_bsp_staggered_s", "s"},
    {"algos.matmul_mp_bpram_s", "s"},
    {"algos.self_s", "s"},
    {"algos.self_ns_per_parcel", "ns"},
    {"runtime.parcels", "count"},
    {"runtime.payload_bytes", "B"},
    {"net.delta.route_s", "s"},
    {"net.delta.route_calls", "count"},
    {"net.delta.route_us_p50", "us"},
    {"net.delta.route_us_p99", "us"},
    {"net.delta.pattern_reuse", "ratio"},
    {"net.delta.waves", "count"},
    {"net.delta.conflicts", "count"},
    {"net.fat_tree.route_s", "s"},
    {"net.fat_tree.route_calls", "count"},
    {"net.fat_tree.ns_per_packet", "ns"},
    {"net.fat_tree.port_queue_peak", "count"},
    {"net.mesh.route_s", "s"},
    {"net.mesh.route_calls", "count"},
    {"net.mesh.route_us_p50", "us"},
    {"net.mesh.route_us_p99", "us"},
    {"net.mesh.recv_backlog_peak", "count"},
    {"net.drain_s", "s"},
    {"machines.make_s", "s"},
    {"machine.exchanges", "count"},
    {"machine.packets", "count"},
    {"machine.bytes", "B"},
    {"machine.barriers", "count"},
    {"calibrate.maspar_s", "s"},
    {"calibrate.gcel_s", "s"},
    {"calibrate.cm5_s", "s"},
    {"calibrate.self_s", "s"},
    {"exec.sweep_s", "s"},
    {"exec.overhead_s", "s"},
    {"exec.resume_s", "s"},
    {"exec.cells", "count"},
    {"exec.cells_failed", "count"},
    {"trace.overhead_pct", "%"},
};

/// The layer each workload's prediction table names as dominant, and the
/// span root it is judged on (table1's routers are only visible in the
/// replay, because exec builds its own machines).
struct Prediction {
  std::string_view workload, root, layer;
};
constexpr Prediction kPredictions[] = {
    {"fig05-bitonic-maspar", "kernel", "algos"},
    {"fig16-matmul-cm5", "kernel", "net"},
    {"table1-calib-sweep", "replay", "net"},
};

using SelfTimes = std::map<std::string, std::int64_t>;

/// Sum of the layer self times under one root.
std::int64_t self_sum(const SelfTimes& self, const std::string& root) {
  std::int64_t sum = 0;
  for (const auto& [key, ns] : self) {
    if (key.starts_with(root + "/") && !key.ends_with("/total")) sum += ns;
  }
  return sum;
}

/// Print each root's self-time split by layer and name the dominant layer
/// against the prediction.
void report_layers(const Args& a, const SelfTimes& self) {
  for (const char* root : {"setup", "kernel", "replay"}) {
    const auto total_it = self.find(std::string(root) + "/total");
    if (total_it == self.end()) continue;
    const double total = static_cast<double>(total_it->second);
    std::int64_t net = 0;
    std::string best;
    std::int64_t best_ns = -1;
    std::fprintf(stderr, "self time under %s (%.4f s):\n", root, total * 1e-9);
    for (const auto& [key, ns] : self) {
      if (key.rfind(std::string(root) + "/", 0) != 0 || key.ends_with("/total")) {
        continue;
      }
      const std::string layer = key.substr(std::string(root).size() + 1);
      if (layer.starts_with("net.")) net += ns;
      std::fprintf(stderr, "  %-16s %10.4f s  %5.1f%%\n", layer.c_str(),
                   static_cast<double>(ns) * 1e-9, 100.0 * static_cast<double>(ns) / total);
      if (!layer.starts_with("net.") && ns > best_ns) {
        best = layer;
        best_ns = ns;
      }
    }
    if (net > best_ns) {
      best = "net";
      best_ns = net;
    }
    for (const auto& p : kPredictions) {
      if (p.workload != a.workload || p.root != root) continue;
      const bool match = best == p.layer;
      std::fprintf(stderr, "  dominant layer: %s (%.1f%%), predicted %s: %s\n",
                   best.c_str(), 100.0 * static_cast<double>(best_ns) / total,
                   std::string(p.layer).c_str(), match ? "match" : "MISMATCH");
    }
  }
}

int run_traced(const Args& a, Workload& w, const PassResult& ref,
               Checks& checks) {
  SpanLog log;
  std::vector<double> untraced, traced;
  std::vector<LayerFigures> figures;
  obs::MetricsSnapshot counters;
  const std::int64_t start = host_ns();
  for (std::size_t pairs = 0;
       pairs == 0 || ns_to_s(host_ns() - start) < a.seconds; ++pairs) {
    const auto u = run_pass(w, nullptr, checks);
    if (u) {
      check_same(*u, ref, false, "untraced pass", checks);
      untraced.push_back(ns_to_s(u->kernel_ns));
    }
    const std::size_t begin = log.size();
    const auto t = observed_pass(w, &log, checks);
    const std::size_t end = log.size();
    if (!t) continue;
    check_same(*t, ref, true, "traced pass", checks);
    checks.expect(well_nested(log, begin, end),
                  "traced pass spans are well nested");
    // The kernel span tree against the pass's own host_ns pair: self times
    // must account for the timed kernel (1% covers span bookkeeping).
    const SelfTimes self = self_times(log, begin, end);
    checks.expect(std::abs(self_sum(self, "kernel") - t->kernel_ns) <=
                      t->kernel_ns / 100,
                  "span self times add up to the timed kernel");
    traced.push_back(ns_to_s(t->kernel_ns));
    LayerFigures f = analyse(log, begin, end);
    for (const auto& [k, v] : t->figures) f[k] = v;
    figures.push_back(std::move(f));
    counters = t->counters;
    if (figures.size() == 1) report_layers(a, self);
  }

  LayerFigures mean;
  for (const auto& f : figures) {
    for (const auto& [k, v] : f) mean[k] += v / static_cast<double>(figures.size());
  }
  for (const char* name :
       {"machine.exchanges", "machine.packets", "machine.bytes",
        "machine.barriers", "runtime.parcels", "runtime.payload_bytes",
        "net.delta.waves", "net.delta.conflicts",
        "net.fat_tree.port_queue_peak", "net.mesh.recv_backlog_peak"}) {
    mean[name] = static_cast<double>(counter(counters, name));
  }
  const double parcels = mean["runtime.parcels"];
  mean["algos.self_ns_per_parcel"] =
      parcels > 0 ? mean["algos.self_s"] * 1e9 / parcels : 0.0;
  const double u = sim::summarize(untraced).median;
  mean["trace.overhead_pct"] =
      u > 0 ? 100.0 * (sim::summarize(traced).median - u) / u : 0.0;

  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = mean.find(name);
    metrics.push_back({name, it != mean.end() ? it->second : 0.0, unit});
  }
  print_table(metrics, figures.size());
  const std::string spans_path = a.scratch + "/spans-" + a.workload + ".csv";
  checks.expect(log.write_csv(spans_path), "spans written to " + spans_path);
  std::printf("trace: %zu traced and %zu untraced passes, %zu spans in %s\n",
              traced.size(), untraced.size(), log.size(), spans_path.c_str());
  std::printf("operations: attempted %ld, failed %ld\n", checks.attempted,
              checks.failed);
  print_result(checks, metrics);
  return 0;
}

int run(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) {
    usage();
    return 2;
  }
  // The tier-1 configuration: every plane compiled in, none switched on.
  if (audit::enabled() || race::enabled() || obs::enabled()) {
    std::cerr << "figbench: unset PCM_AUDIT, PCM_RACE and PCM_OBS; the "
                 "benchmark measures the planes switched off\n";
    return 2;
  }
  std::filesystem::create_directories(args->scratch);
  const auto w = make_workload(args->workload, args->seed, args->scratch);
  if (w == nullptr) {
    usage();
    return 2;
  }
  Checks checks;
  // --trace 0 opens with its first timed pass, so peak_rss_mb is the peak of
  // one set-up and one kernel in a fresh process with every plane off — a
  // deterministic point, unlike the end of a run whose pass count is timed.
  std::vector<PassResult> timed;
  double rss_mb = 0.0;
  if (args->trace == 0) {
    if (auto r = run_pass(*w, nullptr, checks)) timed.push_back(std::move(*r));
    rss_mb = peak_rss_mb();
  }
  const auto ref = observed_pass(*w, nullptr, checks);
  if (!ref) {
    std::cerr << "figbench: the reference pass failed\n";
    return 1;
  }
  std::printf("figbench %s seed=%" PRIu64 " seconds=%ld trace=%d\n",
              args->workload.c_str(), args->seed, args->seconds, args->trace);
  std::printf("digest %016" PRIx64 "  paper_err_pct %.6f %%\n", ref->digest,
              ref->paper_err_pct);
  return args->trace == 0
             ? run_untraced(*args, *w, *ref, std::move(timed), rss_mb, checks)
             : run_traced(*args, *w, *ref, checks);
}

}  // namespace
}  // namespace figbench

int main(int argc, char** argv) { return figbench::run(argc, argv); }
