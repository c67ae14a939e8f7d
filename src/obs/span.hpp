#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

// The span-based trace recorder of the observability plane (see
// obs/obs.hpp), and each Machine's one record of its timeline: spans of
// simulated time that tile [0, makespan] with no gaps and no overlaps. The
// machine reports each communication step and barrier as a [before, after)
// interval; the recorder fills the stretch since the previous interval with
// a Compute span before appending it. A trailing Compute span up to the
// caller's `now` (tiled()) completes the tiling, so per-phase span durations
// sum to the total simulated time *by construction* — the property the
// golden-trace tests, the Chrome trace export and pcmtool's --breakdown all
// lean on.

namespace pcm::obs {

enum class SpanKind { Compute, Communicate, Barrier };

[[nodiscard]] constexpr std::string_view to_string(SpanKind k) {
  switch (k) {
    case SpanKind::Compute: return "compute";
    case SpanKind::Communicate: return "communicate";
    case SpanKind::Barrier: return "barrier";
  }
  return "?";
}

struct Span {
  SpanKind kind = SpanKind::Compute;
  sim::Micros start = 0.0;
  sim::Micros duration = 0.0;
  long trial = 0;
  long superstep = 0;
  std::uint64_t messages = 0;  ///< Communicate spans: messages routed.
  std::uint64_t bytes = 0;     ///< Communicate spans: payload bytes routed.

  friend bool operator==(const Span&, const Span&) = default;
};

class SpanRecorder {
 public:
  [[nodiscard]] bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }

  /// Start a fresh trial timeline: drop recorded spans, cursor to zero.
  /// Called by Machine::reset().
  void begin_trial(long trial) {
    spans_.clear();
    cursor_ = 0.0;
    trial_ = trial;
  }

  /// A communication step occupied [before, after) at `superstep`.
  void on_exchange(sim::Micros before, sim::Micros after, long superstep,
                   std::uint64_t messages, std::uint64_t bytes) {
    if (!on_) return;
    gap_fill(before, superstep);
    spans_.push_back(Span{SpanKind::Communicate, before, after - before,
                          trial_, superstep, messages, bytes});
    cursor_ = after;
  }

  /// A barrier occupied [before, after), closing `superstep`.
  void on_barrier(sim::Micros before, sim::Micros after, long superstep) {
    if (!on_) return;
    gap_fill(before, superstep);
    spans_.push_back(
        Span{SpanKind::Barrier, before, after - before, trial_, superstep, 0, 0});
    cursor_ = after;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] long trial() const { return trial_; }

  /// The recorded spans completed with a trailing Compute span up to `now`
  /// (attributed to `superstep`, the machine's current one): the result
  /// tiles [0, now] exactly (assuming `now >=` the last span end, which
  /// Machine guarantees — clocks are monotone).
  [[nodiscard]] std::vector<Span> tiled(sim::Micros now, long superstep) const {
    std::vector<Span> out = spans_;
    if (now > cursor_) {
      out.push_back(
          Span{SpanKind::Compute, cursor_, now - cursor_, trial_, superstep, 0, 0});
    }
    return out;
  }

 private:
  /// Emit a Compute span covering [cursor_, upto) if the machine advanced
  /// between the previous recorded interval and this one.
  void gap_fill(sim::Micros upto, long superstep) {
    if (upto > cursor_) {
      spans_.push_back(Span{SpanKind::Compute, cursor_, upto - cursor_, trial_,
                            superstep, 0, 0});
    }
    cursor_ = upto > cursor_ ? upto : cursor_;
  }

  bool on_ = false;
  sim::Micros cursor_ = 0.0;
  long trial_ = 0;
  std::vector<Span> spans_;
};

}  // namespace pcm::obs
