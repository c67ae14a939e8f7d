#include "fault/injector.hpp"

#include <cassert>
#include <utility>

namespace pcm::fault {

Injector::Injector(std::shared_ptr<const FaultPlan> plan,
                   std::uint64_t machine_seed, int procs)
    : plan_(std::move(plan)),
      machine_seed_(machine_seed),
      procs_(procs),
      stream_(0),
      straggler_(static_cast<std::size_t>(procs), 1.0),
      dead_(static_cast<std::size_t>(procs), 0) {
  assert(plan_ != nullptr);
  assert(procs_ > 0);
  new_trial(0);
}

void Injector::new_trial(long trial) {
  stream_ = sim::Rng(plan_->seed)
                .split(machine_seed_)
                .split(static_cast<std::uint64_t>(trial));
  // Per-trial state is drawn up front from the fresh stream so the draws a
  // superstep consumes later never depend on which kinds are active.
  any_dead_ = false;
  for (int p = 0; p < procs_; ++p) {
    const double draw = stream_.next_double();
    const auto i = static_cast<std::size_t>(p);
    if (plan_->kind == FaultKind::Straggler) {
      straggler_[i] = draw < plan_->rate ? plan_->resolved_severity() : 1.0;
      dead_[i] = 0;
    } else if (plan_->kind == FaultKind::DeadChannel) {
      straggler_[i] = 1.0;
      dead_[i] = draw < plan_->rate ? 1 : 0;
      any_dead_ = any_dead_ || dead_[i] != 0;
    } else {
      straggler_[i] = 1.0;
      dead_[i] = 0;
    }
  }
}

bool Injector::packet_plane() const {
  switch (plan_->kind) {
    case FaultKind::DropPacket:
    case FaultKind::DuplicatePacket:
    case FaultKind::DeadChannel:
      return true;
    default:
      return false;
  }
}

net::CommPattern Injector::apply_packet_faults(const net::CommPattern& pattern,
                                               long superstep,
                                               ExchangeFaults* out) {
  if (!packet_plane() || !plan_->in_window(superstep)) return pattern;
  net::CommPattern faulted(pattern.procs());
  // Walk the active-sender view in ascending order: identical draw order to
  // the historical all-P scan (silent senders never drew), and the faulted
  // pattern is rebuilt already in canonical order.
  for (const int src : pattern.senders()) {
    const auto queue = pattern.sends_of(src);
    for (std::size_t q = 0; q < queue.size(); ++q) {
      const net::Message& m = queue[q];
      const PacketFault fault{m.src, m.dst, m.bytes, q};
      bool duplicate = false;
      switch (plan_->kind) {
        case FaultKind::DropPacket:
          if (stream_.next_double() < plan_->rate) {
            ++counters_.dropped;
            // Fault-trace ledger, populated only when the caller asks for a
            // record of the injected faults (out != nullptr).
            if (out != nullptr) out->dropped.push_back(fault);
            continue;  // lost in flight
          }
          break;
        case FaultKind::DeadChannel:
          // No draw: the per-trial mask already decided, and keeping the
          // stream untouched here makes window edges easy to reason about.
          if (dead_[static_cast<std::size_t>(m.src)] != 0 ||
              dead_[static_cast<std::size_t>(m.dst)] != 0) {
            ++counters_.dropped;
            if (out != nullptr) out->dropped.push_back(fault);
            continue;
          }
          break;
        case FaultKind::DuplicatePacket:
          if (stream_.next_double() < plan_->rate) {
            ++counters_.duplicated;
            if (out != nullptr) out->duplicated.push_back(fault);
            duplicate = true;
          }
          break;
        default:
          break;
      }
      faulted.add(m);
      if (duplicate) faulted.add(m);  // rides right behind the original
    }
  }
  return faulted;
}

double Injector::compute_multiplier(int p, long superstep) const {
  if (plan_->kind != FaultKind::Straggler || !plan_->in_window(superstep)) {
    return 1.0;
  }
  assert(p >= 0 && p < procs_);
  return straggler_[static_cast<std::size_t>(p)];
}

double Injector::barrier_stall(long superstep) {
  if (plan_->kind != FaultKind::BarrierStall || !plan_->in_window(superstep)) {
    return 0.0;
  }
  if (stream_.next_double() < plan_->rate) {
    ++counters_.stalls;
    return plan_->resolved_severity();
  }
  return 0.0;
}

double Injector::xnet_multiplier(long superstep) const {
  if (plan_->kind != FaultKind::DeadChannel || !plan_->in_window(superstep) ||
      !any_dead_) {
    return 1.0;
  }
  return plan_->resolved_severity();
}

bool Injector::should_corrupt(long superstep) {
  if (plan_->kind != FaultKind::CorruptPayload ||
      !plan_->in_window(superstep)) {
    return false;
  }
  if (stream_.next_double() < plan_->rate) {
    ++counters_.corrupted;
    return true;
  }
  return false;
}

void Injector::corrupt(std::span<unsigned char> payload) {
  if (payload.empty()) return;
  const auto bit = stream_.next_below(payload.size() * 8u);
  payload[static_cast<std::size_t>(bit / 8)] ^=
      static_cast<unsigned char>(1u << (bit % 8));
}

}  // namespace pcm::fault
