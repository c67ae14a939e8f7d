// pcm-lint:allow-file(determinism-taint)
// Span timestamps are host time by design (see timing.hpp); they are
// reported, never fed back into the simulation.

#include "trace.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "net/delta_router.hpp"
#include "net/fat_tree.hpp"
#include "net/mesh_router.hpp"
#include "timing.hpp"

namespace figbench {

namespace {

constexpr std::array<std::string_view, static_cast<std::size_t>(SpanName::Count_)>
    kSpanNames = {"setup",
                  "kernel",
                  "replay",
                  "machines.make_machine",
                  "calibrate.maspar",
                  "calibrate.gcel",
                  "calibrate.cm5",
                  "algos.run_bitonic",
                  "algos.run_matmul.bsp_unstaggered",
                  "algos.run_matmul.bsp_staggered",
                  "algos.run_matmul.mp_bpram",
                  "exec.run_sweep",
                  "exec.measure",
                  "exec.resume",
                  "net.delta.route",
                  "net.fat_tree.route",
                  "net.mesh.route",
                  "net.drain",
                  "trace.pattern_hash"};

/// The layer a span's self time belongs to.
std::string_view layer_of(SpanName n) {
  switch (n) {
    case SpanName::Setup:
    case SpanName::Kernel:
    case SpanName::Replay:
    case SpanName::PatternHash: return "harness";
    case SpanName::MakeMachine: return "machines";
    case SpanName::CalibrateMasPar:
    case SpanName::CalibrateGCel:
    case SpanName::CalibrateCM5:
    case SpanName::Measure: return "calibrate";
    case SpanName::RunBitonic:
    case SpanName::MatmulBspUnstaggered:
    case SpanName::MatmulBspStaggered:
    case SpanName::MatmulMpBpram: return "algos";
    case SpanName::RunSweep:
    case SpanName::Resume: return "exec";
    case SpanName::RouteDelta: return "net.delta";
    case SpanName::RouteFatTree: return "net.fat_tree";
    case SpanName::RouteMesh: return "net.mesh";
    case SpanName::Drain: return "net.drain";
    case SpanName::Count_: break;
  }
  return "?";
}

/// Timing decorator around a platform router. Every call is forwarded
/// unchanged; route() and drain() are recorded as spans.
class TimedRouter final : public net::Router {
 public:
  TimedRouter(std::unique_ptr<net::Router> inner, SpanName route_span,
              SpanLog& log)
      : Router(inner->procs()),
        inner_(std::move(inner)),
        route_span_(route_span),
        log_(log) {}

  [[nodiscard]] net::Router& wrapped() { return *inner_; }

  void route(const net::CommPattern& pattern, sim::ClockSet& clocks,
             sim::Rng& rng) override {
    const std::size_t id = log_.open(route_span_, 0, pattern.size());
    inner_->route(pattern, clocks, rng);
    log_.close(id);
    // pattern_reuse needs the hash; take it after the route, in a harness
    // span. Before the route, hash() would canonicalise the pattern (a sort
    // the pattern then caches) outside the route span and hide that cost
    // from net.delta.route_s, and its pass over every message would count
    // in algos.self_s.
    if (route_span_ == SpanName::RouteDelta) {
      const SpanScope h(&log_, SpanName::PatternHash);
      log_.set_pattern(id, pattern.hash());
    }
  }

  void drain(sim::Micros t) override {
    const SpanScope s(&log_, SpanName::Drain);
    inner_->drain(t);
  }

  void reset() override { inner_->reset(); }
  void new_trial(sim::Rng& rng) override { inner_->new_trial(rng); }
  [[nodiscard]] std::string audit_leak_report(sim::Micros t) const override {
    return inner_->audit_leak_report(t);
  }

 private:
  std::unique_ptr<net::Router> inner_;
  SpanName route_span_;
  SpanLog& log_;
};

/// The parts src/machines/{maspar,gcel,cm5}.cpp assemble a platform from.
/// The traced run's fidelity check (identical digest and counters to the
/// untraced run) fails if these drift from the library's own recipes.
struct Recipe {
  std::string name;
  int procs = 0;
  machines::LocalCompute compute;
  std::unique_ptr<net::Router> router;
  sim::Micros barrier_cost = 0.0;
  SpanName route_span = SpanName::RouteDelta;
};

net::MeshRouterParams gcel_mesh(int procs) {
  net::MeshRouterParams p;
  int w = 1;
  while (w * w < procs) ++w;
  while (procs % w != 0) ++w;
  p.width = w;
  p.height = procs / w;
  return p;
}

Recipe recipe(const machines::MachineSpec& spec) {
  const int procs = spec.resolved_procs();
  switch (spec.platform) {
    case machines::Platform::MasPar:
      return {"MasPar MP-1", procs, machines::maspar_compute(),
              std::make_unique<net::DeltaRouter>(procs), 0.0,
              SpanName::RouteDelta};
    case machines::Platform::GCel:
      return {"Parsytec GCel", procs, machines::gcel_compute(),
              std::make_unique<net::MeshRouter>(procs, gcel_mesh(procs),
                                                spec.seed ^ 0x5bd1e995u),
              3800.0, SpanName::RouteMesh};
    case machines::Platform::CM5:
      return {"TMC CM-5", procs, machines::cm5_compute(),
              std::make_unique<net::FatTree>(procs), 40.0,
              SpanName::RouteFatTree};
    case machines::Platform::T800: break;
  }
  throw std::invalid_argument("traced machines cover maspar, gcel and cm5 only");
}

class TracedMachine final : public machines::Machine {
 public:
  TracedMachine(const machines::MachineSpec& spec, SpanLog& log)
      : TracedMachine(recipe(spec), spec.seed, log) {}

 private:
  TracedMachine(Recipe r, std::uint64_t seed, SpanLog& log)
      : Machine(std::move(r.name), r.procs, r.compute,
                std::make_unique<TimedRouter>(std::move(r.router),
                                              r.route_span, log),
                r.barrier_cost, seed) {
    // Router::set_metrics is not virtual: the base constructor handed the
    // machine's Metrics to the decorator, so pass them on to the wrapped
    // router or its waves / queue-peak counters would read zero.
    static_cast<TimedRouter&>(router()).wrapped().set_metrics(&metrics());
    set_observing(true);
  }
};

}  // namespace

std::string_view to_string(SpanName n) {
  return kSpanNames.at(static_cast<std::size_t>(n));
}

std::size_t SpanLog::open(SpanName name, std::uint64_t pattern,
                          std::uint64_t messages) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  s.pattern = pattern;
  s.messages = messages;
  spans_.push_back(s);
  open_.push_back(spans_.size() - 1);
  spans_.back().start_ns = host_ns();
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t id) {
  const std::int64_t t = host_ns();
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order");
  }
  spans_[id].end_ns = t;
  open_.pop_back();
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "index,parent,name,start_ns,end_ns,pattern,messages\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.parent << ',' << to_string(s.name) << ','
        << s.start_ns << ',' << s.end_ns << ',' << s.pattern << ','
        << s.messages << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

std::unique_ptr<machines::Machine> build_machine(
    const machines::MachineSpec& spec, SpanLog* log) {
  if (log == nullptr) return machines::make_machine(spec);
  const SpanScope s(log, SpanName::MakeMachine);
  return std::make_unique<TracedMachine>(spec, *log);
}

SpanName calibrate_span(machines::Platform p) {
  switch (p) {
    case machines::Platform::MasPar: return SpanName::CalibrateMasPar;
    case machines::Platform::GCel: return SpanName::CalibrateGCel;
    case machines::Platform::CM5: return SpanName::CalibrateCM5;
    case machines::Platform::T800: break;
  }
  throw std::invalid_argument("no calibrate span for this platform");
}

namespace {

/// Per-span derived data for a range of the log: root name and self time.
struct Tree {
  std::vector<SpanName> root;
  std::vector<std::int64_t> self_ns;
};

Tree build_tree(const SpanLog& log, std::size_t begin, std::size_t end) {
  const auto& spans = log.spans();
  Tree t;
  t.root.resize(end - begin);
  t.self_ns.resize(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    const Span& s = spans[i];
    const std::size_t k = i - begin;
    t.self_ns[k] += s.end_ns - s.start_ns;
    const bool in_range = s.parent >= 0 &&
                          static_cast<std::size_t>(s.parent) >= begin;
    if (in_range) {
      const std::size_t p = static_cast<std::size_t>(s.parent) - begin;
      t.root[k] = t.root[p];
      t.self_ns[p] -= s.end_ns - s.start_ns;
    } else {
      t.root[k] = s.name;
    }
  }
  return t;
}

double percentile_us(std::vector<std::int64_t> ns, double q) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(ns.size())));
  return static_cast<double>(ns[rank == 0 ? 0 : rank - 1]) * 1e-3;
}

}  // namespace

LayerFigures analyse(const SpanLog& log, std::size_t begin, std::size_t end) {
  const auto& spans = log.spans();
  const Tree tree = build_tree(log, begin, end);
  std::map<SpanName, std::int64_t> total_ns, self_ns, calls;
  std::map<SpanName, std::vector<std::int64_t>> durations;
  std::uint64_t fat_tree_messages = 0;
  std::unordered_set<std::uint64_t> delta_patterns;
  for (std::size_t i = begin; i < end; ++i) {
    const Span& s = spans[i];
    const std::size_t k = i - begin;
    const std::int64_t dur = s.end_ns - s.start_ns;
    const bool everywhere = s.name == SpanName::MakeMachine ||
                            layer_of(s.name) == "calibrate";
    if (tree.root[k] == SpanName::Setup && !everywhere) continue;
    total_ns[s.name] += dur;
    self_ns[s.name] += tree.self_ns[k];
    ++calls[s.name];
    if (s.name == SpanName::RouteDelta) delta_patterns.insert(s.pattern);
    if (s.name == SpanName::RouteFatTree) fat_tree_messages += s.messages;
    if (s.name == SpanName::RouteDelta || s.name == SpanName::RouteMesh) {
      durations[s.name].push_back(dur);
    }
  }
  const auto sec = [&](SpanName n) { return ns_to_s(total_ns[n]); };
  const auto count = [&](SpanName n) { return static_cast<double>(calls[n]); };

  LayerFigures f;
  f["algos.bitonic_s"] = sec(SpanName::RunBitonic);
  f["algos.matmul_bsp_unstaggered_s"] = sec(SpanName::MatmulBspUnstaggered);
  f["algos.matmul_bsp_staggered_s"] = sec(SpanName::MatmulBspStaggered);
  f["algos.matmul_mp_bpram_s"] = sec(SpanName::MatmulMpBpram);
  f["algos.self_s"] =
      ns_to_s(self_ns[SpanName::RunBitonic] +
              self_ns[SpanName::MatmulBspUnstaggered] +
              self_ns[SpanName::MatmulBspStaggered] +
              self_ns[SpanName::MatmulMpBpram]);

  const double delta_calls = count(SpanName::RouteDelta);
  f["net.delta.route_s"] = sec(SpanName::RouteDelta);
  f["net.delta.route_calls"] = delta_calls;
  f["net.delta.route_us_p50"] = percentile_us(durations[SpanName::RouteDelta], 0.50);
  f["net.delta.route_us_p99"] = percentile_us(durations[SpanName::RouteDelta], 0.99);
  f["net.delta.pattern_reuse"] =
      delta_calls > 0
          ? 1.0 - static_cast<double>(delta_patterns.size()) / delta_calls
          : 0.0;

  f["net.fat_tree.route_s"] = sec(SpanName::RouteFatTree);
  f["net.fat_tree.route_calls"] = count(SpanName::RouteFatTree);
  f["net.fat_tree.ns_per_packet"] =
      fat_tree_messages > 0
          ? static_cast<double>(total_ns[SpanName::RouteFatTree]) /
                static_cast<double>(fat_tree_messages)
          : 0.0;

  f["net.mesh.route_s"] = sec(SpanName::RouteMesh);
  f["net.mesh.route_calls"] = count(SpanName::RouteMesh);
  f["net.mesh.route_us_p50"] = percentile_us(durations[SpanName::RouteMesh], 0.50);
  f["net.mesh.route_us_p99"] = percentile_us(durations[SpanName::RouteMesh], 0.99);

  f["net.drain_s"] = sec(SpanName::Drain);
  f["machines.make_s"] = sec(SpanName::MakeMachine);
  f["calibrate.maspar_s"] = sec(SpanName::CalibrateMasPar);
  f["calibrate.gcel_s"] = sec(SpanName::CalibrateGCel);
  f["calibrate.cm5_s"] = sec(SpanName::CalibrateCM5);
  f["calibrate.self_s"] =
      ns_to_s(self_ns[SpanName::CalibrateMasPar] +
              self_ns[SpanName::CalibrateGCel] + self_ns[SpanName::CalibrateCM5]);

  f["exec.sweep_s"] = sec(SpanName::RunSweep);
  f["exec.overhead_s"] =
      ns_to_s(total_ns[SpanName::RunSweep] - total_ns[SpanName::Measure]);
  f["exec.resume_s"] = sec(SpanName::Resume);
  return f;
}

std::map<std::string, std::int64_t> self_times(const SpanLog& log,
                                               std::size_t begin,
                                               std::size_t end) {
  const auto& spans = log.spans();
  const Tree tree = build_tree(log, begin, end);
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = begin; i < end; ++i) {
    const Span& s = spans[i];
    const std::size_t k = i - begin;
    const std::string root(to_string(tree.root[k]));
    out[root + "/" + std::string(layer_of(s.name))] += tree.self_ns[k];
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) < begin) {
      out[root + "/total"] += s.end_ns - s.start_ns;
    }
  }
  return out;
}

bool well_nested(const SpanLog& log, std::size_t begin, std::size_t end) {
  const auto& spans = log.spans();
  // last_child_end[p]: end of the latest child seen under span p.
  std::vector<std::int64_t> last_child_end(end - begin, 0);
  std::int64_t last_root_end = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) return false;
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) >= begin) {
      const std::size_t p = static_cast<std::size_t>(s.parent) - begin;
      const Span& ps = spans[static_cast<std::size_t>(s.parent)];
      if (s.start_ns < ps.start_ns || s.end_ns > ps.end_ns) return false;
      if (s.start_ns < last_child_end[p]) return false;
      last_child_end[p] = s.end_ns;
    } else {
      if (s.start_ns < last_root_end) return false;
      last_root_end = s.end_ns;
    }
  }
  return true;
}

}  // namespace figbench
