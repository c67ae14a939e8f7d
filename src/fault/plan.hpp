#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

// pcm::fault — the deterministic fault-injection plane.
//
// The paper's methodology assumes every run of the MasPar/GCel/CM-5
// completes cleanly; this module is the machinery for studying what the
// models predict when a machine does NOT behave: packets dropped or
// duplicated in the network, whole channels dead for a trial, payloads
// corrupted in flight, straggler PEs running their local computation a
// constant factor slow, and transient barrier stalls. A FaultPlan is the
// *recipe* — kind, rate, severity, seed and superstep window — and the
// per-machine fault::Injector (injector.hpp) turns the recipe into concrete
// events.
//
// Determinism contract: every injected event is drawn from
// Rng(plan.seed).split(machine_seed).split(trial), a pure function of the
// plan and the cell, never of scheduling. The experiment engine builds one
// machine per (x, trial) cell with a per-cell seed, so a faulted sweep is
// bit-identical at any --jobs value — the same promise the fault-free
// engine makes.
//
// Unlike pcm::audit / pcm::race there is no compile-time gate: a fault plan
// is an *input* (like a machine spec), not an instrument, and the disabled
// cost is one null-pointer test per hook. The plan is process-global
// (selected via --fault=<spec> on every bench and pcmtool) and is read once
// per Machine construction.

namespace pcm::fault {

enum class FaultKind {
  DropPacket,       ///< Each routed message lost with probability `rate`.
  DuplicatePacket,  ///< Each routed message delivered twice with prob `rate`.
  DeadChannel,      ///< Each PE's network channel dead for the whole trial
                    ///< with probability `rate` (messages touching it lost);
                    ///< degrades xnet shifts by `severity` (reroute detour).
  CorruptPayload,   ///< Each delivered parcel has one bit flipped with
                    ///< probability `rate` (timing unchanged — data faults).
  Straggler,        ///< Each PE runs local compute `severity` times slower
                    ///< for the whole trial with probability `rate`.
  BarrierStall,     ///< Each barrier stalls an extra `severity` µs with
                    ///< probability `rate` (transient sync hiccup).
};

[[nodiscard]] std::string_view to_string(FaultKind k);
/// Inverse of to_string(FaultKind). Throws std::invalid_argument.
[[nodiscard]] FaultKind parse_fault_kind(std::string_view text);

/// A fault plan as a value: everything needed to reproduce an injection
/// campaign. Serialisable ("drop:rate=0.05:seed=7:from=2:to=9") so sweeps
/// can record exactly what was injected.
struct FaultPlan {
  static constexpr long kNoLimit = std::numeric_limits<long>::max();

  FaultKind kind = FaultKind::DropPacket;
  double rate = 0.01;      ///< Per-event probability in [0, 1].
  double severity = 0.0;   ///< 0 = the kind's default (see resolved_severity).
  std::uint64_t seed = 1;  ///< Root of every injected event stream.
  long from_superstep = 0;          ///< Window start (inclusive).
  long to_superstep = kNoLimit;     ///< Window end (inclusive).

  [[nodiscard]] bool in_window(long superstep) const {
    return superstep >= from_superstep && superstep <= to_superstep;
  }

  /// Severity after resolving the kind default: straggler slowdown factor
  /// 4x, barrier stall 5000 µs (≈ the GCel's software barrier), dead-channel
  /// xnet detour factor 2x. Kinds without a severity resolve to 0.
  [[nodiscard]] double resolved_severity() const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Render as "kind:rate=R[:severity=X]:seed=S[:from=A][:to=B]" (round-trips
/// via parse_fault_plan; defaulted window fields are omitted).
[[nodiscard]] std::string to_string(const FaultPlan& plan);

/// Parse "kind[:rate=R][:severity=X][:seed=S][:from=A][:to=B]". Throws
/// std::invalid_argument on an unknown kind, unknown field, malformed or
/// out-of-range value (rate outside [0,1], negative severity, from > to).
[[nodiscard]] FaultPlan parse_fault_plan(std::string_view text);

/// The process-global active plan (null when fault injection is off, the
/// default). Machines read it once at construction; setting it mid-sweep
/// affects only machines built afterwards. Thread-safe.
[[nodiscard]] std::shared_ptr<const FaultPlan> active_plan();
void set_plan(std::optional<FaultPlan> plan);

}  // namespace pcm::fault
