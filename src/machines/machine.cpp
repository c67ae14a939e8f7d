#include "machines/machine.hpp"

#include <cassert>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "audit/conservation.hpp"
#include "fault/plan.hpp"
#include "obs/obs.hpp"
#include "race/race.hpp"
#include "net/delta_router.hpp"
#include "net/fat_tree.hpp"
#include "net/mesh_router.hpp"

namespace pcm::machines {

Machine::Machine(std::string name, int procs, LocalCompute compute,
                 std::unique_ptr<net::Router> router, sim::Micros barrier_cost,
                 std::uint64_t seed)
    : name_(std::move(name)),
      compute_(compute),
      router_(std::move(router)),
      clocks_(procs),
      barrier_cost_(barrier_cost),
      rng_(seed) {
  assert(router_ != nullptr);
  assert(router_->procs() == procs);
  router_->set_metrics(&metrics_);
  set_observing(obs::enabled());
  router_->new_trial(rng_);
  if (auto plan = fault::active_plan()) {
    injector_ = std::make_unique<fault::Injector>(std::move(plan), seed, procs);
  }
}

void Machine::check_cancel() const {
  if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
    throw fault::CancelledError("machine '" + name_ +
                                "' cancelled at superstep " +
                                std::to_string(superstep_));
  }
}

void Machine::audit_fail(std::string invariant, std::string resource,
                         std::string detail) const {
  audit::AuditError e(std::move(invariant), std::move(resource),
                      std::move(detail));
  e.set_context(name_, superstep_);
  throw e;
}

void Machine::annotate_audit_error() const {
  try {
    throw;
  } catch (audit::AuditError& e) {
    e.set_context(name_, superstep_);
    throw;
  }
}

void Machine::charge(int p, sim::Micros us) {
  // Audit checks run before the asserts so a violation raises a structured
  // AuditError in Debug builds too (instead of aborting).
  if (audit::enabled()) {
    if (p < 0 || p >= procs()) {
      audit_fail("clock-monotonicity", "pe:" + std::to_string(p),
                 "charge to processor outside [0, " + std::to_string(procs()) +
                     ")");
    }
    if (!(us >= 0.0) || !std::isfinite(us)) {
      audit_fail("clock-monotonicity", "pe:" + std::to_string(p),
                 "negative or non-finite charge of " + std::to_string(us) +
                     " us");
    }
    audit::count_check();
  }
  assert(p >= 0 && p < procs());
  assert(us >= 0.0);
  if (injector_ != nullptr) us *= injector_->compute_multiplier(p, superstep_);
  clocks_.advance(p, us);
}

void Machine::charge_all(sim::Micros us) {
  assert(us >= 0.0);
  // Charging compute to every PE is dense by definition: the BSP/QSM cost
  // models bill the whole machine per superstep.
  for (int p = 0; p < procs(); ++p) {  // pcm-lint:allow(dense-scan)
    sim::Micros scaled = us;
    if (injector_ != nullptr) {
      scaled *= injector_->compute_multiplier(p, superstep_);
    }
    clocks_.advance(p, scaled);
  }
}

void Machine::exchange(const net::CommPattern& pattern) {
  check_cancel();
  last_faults_.clear();
  if (audit::enabled() && pattern.procs() != procs()) {
    audit_fail("packet-conservation", "pattern",
               "pattern built for " + std::to_string(pattern.procs()) +
                   " processors on a " + std::to_string(procs()) +
                   "-processor machine");
  }
  assert(pattern.procs() == procs());
  if (pattern.empty()) return;
  // Packet-plane fault kinds rewrite the pattern the router sees; the
  // runtime Exchange reads last_exchange_faults() afterwards to mirror the
  // rewrites onto its staged payloads.
  const net::CommPattern* routed = &pattern;
  std::optional<net::CommPattern> faulted;
  if (injector_ != nullptr && injector_->packet_plane()) {
    faulted =
        injector_->apply_packet_faults(pattern, superstep_, &last_faults_);
    routed = &*faulted;
  }
  if (routed->empty()) return;  // every message dropped
  const sim::Micros before = now();
  if (audit::enabled()) {
    // Audit mode snapshots the clocks so the in-place route can still be
    // checked for monotonicity; this is the one O(P) cost the audit plane
    // keeps on the exchange path.
    const auto raw = clocks_.raw();
    audit_start_.assign(raw.begin(), raw.end());
    try {
      audit::check_pattern_bounds(*routed, procs());
      router_->route(*routed, clocks_, rng_);
      audit::check_route_monotone(audit_start_, clocks_.raw());
    } catch (const audit::AuditError&) {
      annotate_audit_error();
    }
  } else {
    router_->route(*routed, clocks_, rng_);
  }
  if (metrics_.on()) {
    const obs::Builtin& b = obs::builtin();
    metrics_.add(b.exchanges);
    metrics_.add(b.packets, routed->size());
    metrics_.add(b.bytes, static_cast<std::uint64_t>(routed->total_bytes()));
  }
  if (spans_.on()) {
    spans_.on_exchange(before, now(), superstep_, routed->size(),
                       static_cast<std::uint64_t>(routed->total_bytes()));
  }
}

void Machine::barrier() {
  check_cancel();
  const sim::Micros before = now();
  if (metrics_.on()) {
    // Skew is measured at barrier entry, before the clocks are levelled —
    // the drift the barrier is about to absorb.
    const obs::Builtin& b = obs::builtin();
    metrics_.add(b.barriers);
    metrics_.observe(b.barrier_skew_us,
                     static_cast<std::uint64_t>(clocks_.max() - clocks_.min()));
  }
  sim::Micros cost = barrier_cost_;
  if (injector_ != nullptr) cost += injector_->barrier_stall(superstep_);
  clocks_.barrier(cost);
  router_->drain(now());
  if (audit::enabled()) {
    // Superstep boundary: every PE must sit on the same finite instant and
    // the network must be quiescent (no circuit, link, port or queue
    // occupancy may leak past a barrier).
    const sim::Micros t = now();
    if (!std::isfinite(t)) {
      audit_fail("barrier-matching", "clockset", "non-finite barrier time");
    }
    // The audit invariant is per-PE by nature (every clock must sit on the
    // barrier instant) and only runs when auditing is on, so the O(P) walk
    // never touches a production run.
    for (int p = 0; p < procs(); ++p) {  // pcm-lint:allow(dense-scan)
      if (clocks_.at(p) != t) {
        audit_fail("barrier-matching", "pe:" + std::to_string(p),
                   "clock at " + std::to_string(clocks_.at(p)) +
                       " us after a barrier to " + std::to_string(t) + " us");
      }
    }
    if (std::string leak = router_->audit_leak_report(t); !leak.empty()) {
      audit_fail("occupancy-leak", leak,
                 "router resource busy past the superstep boundary");
    }
    audit::count_check();
  }
  if (spans_.on()) spans_.on_barrier(before, now(), superstep_);
  ++superstep_;
  // The superstep counter is the race detector's happens-before epoch;
  // advancing it here is what orders pre-barrier writes before post-barrier
  // reads in the shadow state.
  if (race::enabled()) race::count_check();
}

void Machine::reset() {
  clocks_.reset();
  router_->reset();
  router_->new_trial(rng_);
  superstep_ = 0;
  ++trial_;
  // A trial transition starts from a clean timeline: the previous trial's
  // spans must not bleed into this one's, and the cursor restarts at zero.
  spans_.begin_trial(trial_);
  if (injector_ != nullptr) injector_->new_trial(trial_);
  last_faults_.clear();
}

void Machine::reseed(std::uint64_t seed) {
  rng_ = sim::Rng(seed);
  if (auto plan = fault::active_plan()) {
    injector_ =
        std::make_unique<fault::Injector>(std::move(plan), seed, procs());
  } else {
    injector_.reset();
  }
  reset();
}

std::string_view to_string(Platform p) {
  switch (p) {
    case Platform::MasPar: return "maspar";
    case Platform::GCel: return "gcel";
    case Platform::CM5: return "cm5";
    case Platform::T800: return "t800";
  }
  return "?";
}

Platform parse_platform(std::string_view text) {
  if (text == "maspar") return Platform::MasPar;
  if (text == "gcel") return Platform::GCel;
  if (text == "cm5") return Platform::CM5;
  if (text == "t800") return Platform::T800;
  throw std::invalid_argument("unknown platform: '" + std::string(text) +
                              "' (expected maspar, gcel, cm5 or t800)");
}

int default_procs(Platform p) {
  return p == Platform::MasPar ? 1024 : 64;
}

std::string to_string(const MachineSpec& spec) {
  return std::string(to_string(spec.platform)) +
         ":procs=" + std::to_string(spec.resolved_procs()) +
         ":seed=" + std::to_string(spec.seed);
}

MachineSpec parse_machine_spec(std::string_view text) {
  std::vector<std::string_view> parts;
  while (true) {
    const auto colon = text.find(':');
    parts.push_back(text.substr(0, colon));
    if (colon == std::string_view::npos) break;
    text.remove_prefix(colon + 1);
  }
  MachineSpec spec;
  spec.platform = parse_platform(parts.front());
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const auto field = parts[i];
    const auto eq = field.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("machine spec field without '=': '" +
                                  std::string(field) + "'");
    }
    const auto key = field.substr(0, eq);
    if (key != "procs" && key != "seed") {
      throw std::invalid_argument("unknown machine spec field: '" +
                                  std::string(key) + "'");
    }
    const std::string value(field.substr(eq + 1));
    std::size_t used = 0;
    try {
      if (key == "procs") {
        spec.procs = std::stoi(value, &used);
      } else {
        spec.seed = std::stoull(value, &used);
      }
    } catch (const std::logic_error&) {
      used = 0;
    }
    if (used == 0 || used != value.size() ||
        (key == "procs" && spec.procs <= 0)) {
      throw std::invalid_argument("malformed machine spec value: '" +
                                  std::string(field) + "'");
    }
  }
  return spec;
}

std::unique_ptr<Machine> make_machine(const MachineSpec& spec) {
  const int procs = spec.resolved_procs();
  switch (spec.platform) {
    case Platform::MasPar: return detail::build_maspar(spec.seed, procs);
    case Platform::GCel: return detail::build_gcel(spec.seed, procs);
    case Platform::CM5: return detail::build_cm5(spec.seed, procs);
    case Platform::T800: return detail::build_t800(spec.seed, procs);
  }
  return nullptr;
}

std::unique_ptr<Machine> make_machine(Platform p, std::uint64_t seed) {
  return make_machine(MachineSpec{.platform = p, .seed = seed});
}

}  // namespace pcm::machines
