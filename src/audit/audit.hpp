#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

// pcm::audit — the runtime invariant auditor.
//
// The paper's argument rests on trusting the measured curves; in this
// reproduction those "measurements" come from the simulators, so a silent
// conservation bug in a router or a nondeterminism leak would invalidate
// every model-vs-machine comparison. The auditor instruments the routers,
// the runtime exchange/mailbox path and the machine barrier so every run
// can prove, while it executes, that
//
//   - packets are conserved: each injected parcel is delivered exactly
//     once, to the right destination, with its payload bytes intact
//     (check_pattern_bounds / endpoint_bytes in audit/conservation.hpp,
//     applied by runtime::Exchange, plus per-router delivery counters);
//   - no circuit/link occupancy leaks across wave or superstep boundaries:
//     Machine::barrier() asks the router for a leak report after drain()
//     (net::Router::audit_leak_report);
//   - simulated clocks are monotone and finite: charge()/exchange() may
//     only move sim::ClockSet entries forward;
//   - barriers match across virtual PEs: after a barrier every PE sits on
//     the same finite instant.
//
// A violation raises AuditError naming the machine, the superstep and the
// resource involved.
//
// The auditor is always compiled in and off at run time; while off, each
// hook costs one predictable branch. The `--audit` flag of the bench harness
// and pcmtool (or PCM_AUDIT=1 in the environment, or audit::set_enabled)
// turns the checks on.

namespace pcm::audit {

/// Always true: every build compiles the auditor in. Kept because the
/// figure-kernel benchmark (figbench/main.cpp) static_asserts it.
constexpr bool compiled_in() { return true; }

/// A violated simulator invariant. `machine` and `superstep` are filled in
/// by the Machine layer when the violation surfaces below it (the routers
/// know their resources but not which machine owns them).
class AuditError final : public std::exception {
 public:
  AuditError(std::string invariant, std::string resource, std::string detail)
      : invariant_(std::move(invariant)),
        resource_(std::move(resource)),
        detail_(std::move(detail)) {
    rebuild();
  }

  [[nodiscard]] const std::string& invariant() const { return invariant_; }
  [[nodiscard]] const std::string& resource() const { return resource_; }
  [[nodiscard]] const std::string& detail() const { return detail_; }
  [[nodiscard]] const std::string& machine() const { return machine_; }
  [[nodiscard]] long superstep() const { return superstep_; }

  /// Annotate with the owning machine and superstep (keeps the rest).
  void set_context(std::string machine, long superstep) {
    machine_ = std::move(machine);
    superstep_ = superstep;
    rebuild();
  }

  [[nodiscard]] const char* what() const noexcept override {
    return message_.c_str();
  }

 private:
  void rebuild() {
    message_ = "audit: invariant '" + invariant_ + "' violated";
    if (!machine_.empty()) message_ += " on machine '" + machine_ + "'";
    if (superstep_ >= 0) message_ += " at superstep " + std::to_string(superstep_);
    message_ += " (resource: " + resource_ + ")";
    if (!detail_.empty()) message_ += ": " + detail_;
  }

  std::string invariant_;
  std::string resource_;
  std::string detail_;
  std::string machine_;
  long superstep_ = -1;
  std::string message_;
};

namespace detail {

inline std::atomic<bool>& flag() {
  static std::atomic<bool> on{[] {
    const char* env = std::getenv("PCM_AUDIT");
    return env != nullptr && env[0] != '\0' &&
           !(env[0] == '0' && env[1] == '\0');
  }()};
  return on;
}

inline std::atomic<std::uint64_t>& check_counter() {
  static std::atomic<std::uint64_t> n{0};
  return n;
}

}  // namespace detail

/// Is auditing active right now?
inline bool enabled() { return detail::flag().load(std::memory_order_relaxed); }

/// Toggle auditing.
inline void set_enabled(bool on) {
  detail::flag().store(on, std::memory_order_relaxed);
}

/// Number of individual invariant checks that have passed so far (across
/// all threads). Tests use this to prove the instrumentation actually ran.
inline std::uint64_t checks_passed() {
  return detail::check_counter().load(std::memory_order_relaxed);
}

/// Record one passed check (called by the instrumentation hooks).
inline void count_check() {
  detail::check_counter().fetch_add(1, std::memory_order_relaxed);
}

/// Raise an AuditError. Machine/superstep context is attached by the
/// Machine layer via AuditError::set_context as the error propagates.
[[noreturn]] inline void fail(std::string invariant, std::string resource,
                              std::string detail = {}) {
  throw AuditError(std::move(invariant), std::move(resource), std::move(detail));
}

}  // namespace pcm::audit
