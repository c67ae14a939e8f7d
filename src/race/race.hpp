#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>

// pcm::race — superstep happens-before check for simulated BSP programs.
//
// The paper's methodology assumes every benchmarked algorithm is a *correct*
// BSP program: a value read in superstep s+1 was delivered before the
// barrier ending superstep s. A violation does not crash the simulator — it
// silently times a buggy computation, which is worse. `pcm::race` is the
// program-level complement to `pcm::audit`: audit proves the *machine* moved
// packets and clocks correctly, race proves the *program* read only data
// its own timeline delivered.
//
// The epoch model: `machines::Machine` counts barriers crossed
// (`superstep()`) and trials started (`trial()`, advanced by reset()). The
// pair (trial, superstep) is a happens-before epoch. Every data motion goes
// through runtime::Exchange, whose run() stamps the Mailbox it fills with
// the delivery epoch, and the detector flags one violation:
//
//   stale-mailbox-read  consuming a Mailbox parcel after the machine was
//                       reset(): the parcel belongs to a superstep of a
//                       torn-down trial, so its closing barrier will never
//                       be crossed on the new timeline.
//
// A violation raises RaceError annotated with the machine, the superstep
// and the reading PE, mirroring audit::AuditError.
//
// The detector is always compiled in and off at run time; while off, each
// hook (Exchange::run, Mailbox::at, Machine::barrier) costs one predictable
// branch. The `--race` flag of the bench harness and pcmtool (or PCM_RACE=1
// in the environment, or race::set_enabled) turns the checks on.

namespace pcm::race {

/// Always true: every build compiles the detector in. Kept because the
/// figure-kernel benchmark (figbench/main.cpp) static_asserts it.
constexpr bool compiled_in() { return true; }

/// A violated BSP ordering rule. `machine` and `superstep` locate the
/// violation on the simulated timeline; `pe` names the processor involved.
class RaceError final : public std::exception {
 public:
  RaceError(std::string violation, int pe, std::string detail)
      : violation_(std::move(violation)), pe_(pe), detail_(std::move(detail)) {
    rebuild();
  }

  [[nodiscard]] const std::string& violation() const { return violation_; }
  [[nodiscard]] int pe() const { return pe_; }
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
    message_ = "race: '" + violation_ + "' violation";
    if (!machine_.empty()) message_ += " on machine '" + machine_ + "'";
    if (superstep_ >= 0) message_ += " at superstep " + std::to_string(superstep_);
    message_ += " (pe " + std::to_string(pe_) + ")";
    if (!detail_.empty()) message_ += ": " + detail_;
  }

  std::string violation_;
  int pe_;
  std::string detail_;
  std::string machine_;
  long superstep_ = -1;
  std::string message_;
};

namespace detail {

inline std::atomic<bool>& flag() {
  static std::atomic<bool> on{[] {
    const char* env = std::getenv("PCM_RACE");
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

/// Is race detection active right now?
inline bool enabled() { return detail::flag().load(std::memory_order_relaxed); }

/// Toggle detection.
inline void set_enabled(bool on) {
  detail::flag().store(on, std::memory_order_relaxed);
}

/// Number of individual ordering checks that have passed so far (across all
/// threads). Tests use this to prove the instrumentation actually ran.
inline std::uint64_t checks_passed() {
  return detail::check_counter().load(std::memory_order_relaxed);
}

/// Record one passed check (called by the instrumentation hooks).
inline void count_check() {
  detail::check_counter().fetch_add(1, std::memory_order_relaxed);
}

/// Raise a fully-annotated RaceError.
[[noreturn]] inline void fail(std::string violation, std::string machine,
                              long superstep, int pe, std::string detail = {}) {
  RaceError e(std::move(violation), pe, std::move(detail));
  e.set_context(std::move(machine), superstep);
  throw e;
}

}  // namespace pcm::race
