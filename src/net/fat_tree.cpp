#include "net/fat_tree.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "audit/audit.hpp"

namespace pcm::net {

namespace {

double clipped_jitter(double gaussian, double sigma) {
  const double g = std::clamp(gaussian, -3.0, 3.0);
  return std::max(0.5, 1.0 + sigma * g);
}

int checked_procs(int procs, const FatTreeParams& p) {
  const std::pair<const char*, double> fields[] = {
      {"o_send", p.o_send},         {"copy_send", p.copy_send},
      {"t_lat", p.t_lat},           {"t_eject", p.t_eject},
      {"eject_byte", p.eject_byte}, {"o_recv", p.o_recv},
      {"copy_recv", p.copy_recv},   {"bulk_setup", p.bulk_setup},
      {"capacity_slack", p.capacity_slack},
      {"kappa_hotspot", p.kappa_hotspot},
      {"jitter", p.jitter}};
  for (const auto& [name, value] : fields) {
    if (!(value >= 0.0)) {
      throw std::invalid_argument(std::string("FatTree: ") + name +
                                  " must be >= 0, got " + std::to_string(value));
    }
  }
  return procs;
}

}  // namespace

void FatTree::PortQueue::retire_until(sim::Micros t) {
  while (head < entries.size() && entries[head].first <= t) {
    const auto it = find_sender(entries[head].second);
    assert(it != per_sender.end() && it->first == entries[head].second);
    if (--it->second == 0) per_sender.erase(it);
    ++head;
  }
  if (head == entries.size()) {
    entries.clear();
    head = 0;
  } else if (head >= kCompactAt && head >= pending()) {
    // Slide the live tail down instead of letting the window grow with
    // every message the port has ever seen.
    entries.erase(entries.begin(),
                  entries.begin() + static_cast<std::ptrdiff_t>(head));
    head = 0;
  }
}

auto FatTree::PortQueue::find_sender(std::int32_t sender)
    -> std::vector<SenderCount>::iterator {
  return std::lower_bound(
      per_sender.begin(), per_sender.end(), sender,
      [](const SenderCount& e, std::int32_t s) { return e.first < s; });
}

void FatTree::PortQueue::clear() {
  entries.clear();
  head = 0;
  per_sender.clear();
}

FatTree::FatTree(int procs, FatTreeParams params)
    : Router(checked_procs(procs, params)),
      params_(params),
      cpu_free_(static_cast<std::size_t>(procs), 0.0),
      port_free_(static_cast<std::size_t>(procs), 0.0),
      queues_(static_cast<std::size_t>(procs)),
      queue_stamp_(static_cast<std::size_t>(procs), 0),
      recv_free_(static_cast<std::size_t>(procs), 0.0) {}

void FatTree::route(const CommPattern& pattern, sim::ClockSet& clocks,
                    sim::Rng& rng) {
  assert(clocks.size() == procs());
  if (pattern.empty()) return;

  const auto senders = pattern.senders();
  const auto receivers = pattern.receivers();

  for (const int r : receivers) {
    recv_free_[static_cast<std::size_t>(r)] =
        std::max(cpu_avail(r), clocks.at(r));
  }

  // Event loop: always advance the sender whose next injection completes
  // first. Backpressure may push a sender's CPU forward, which is why the
  // schedule cannot be precomputed per node. The queue is a loser tree over
  // one lane per active sender keyed (time, sender): keys are distinct, so
  // it pops in exactly the order a (time, sender) min-heap would.
  const std::size_t lanes = senders.size();
  lane_time_.resize(lanes);  // capacity persists across calls
  lane_next_.resize(lanes);
  lane_end_.resize(lanes);
  loser_.resize(lanes);
  winner_scratch_.resize(2 * lanes);
  touched_queues_.reserve(receivers.size());
  std::size_t offset = 0;
  for (std::size_t i = 0; i < lanes; ++i) {
    const int p = senders[i];
    const sim::Micros cpu = std::max(cpu_avail(p), clocks.at(p));
    cpu_free_[static_cast<std::size_t>(p)] = cpu;
    lane_time_[i] = cpu;
    lane_next_[i] = offset;
    offset += static_cast<std::size_t>(pattern.send_count(p));
    lane_end_[i] = offset;
  }
  for (std::size_t i = 0; i < lanes; ++i) {
    winner_scratch_[lanes + i] = static_cast<std::int32_t>(i);
  }
  for (std::size_t node = lanes - 1; node > 0; --node) {
    const std::int32_t a = winner_scratch_[2 * node];
    const std::int32_t b = winner_scratch_[2 * node + 1];
    const bool a_first = lane_first(a, b);
    winner_scratch_[node] = a_first ? a : b;
    loser_[node] = a_first ? b : a;
  }
  loser_[0] = lanes == 1 ? 0 : winner_scratch_[1];

  const std::size_t draws = 3 * pattern.size();
  if (sim::GaussianStream::worth_streaming(draws)) {
    const sim::GaussianStream::Scope stream(jitter_, rng, draws);
    route_events(pattern, [this] { return jitter_.next_streamed(); });
  } else {
    route_events(pattern, [&rng] { return rng.next_gaussian(); });
  }

  // Fold the receive-handler occupancy back into the node CPU so chained
  // steps see it, and advance only the participants' clocks.
  for (const int r : receivers) {
    const sim::Micros rf = recv_free_[static_cast<std::size_t>(r)];
    clocks.wait_until(r, rf);
    cpu_free_[static_cast<std::size_t>(r)] = std::max(cpu_avail(r), rf);
  }
  for (const int s : senders) clocks.wait_until(s, cpu_avail(s));
}

template <class Draw>
void FatTree::route_events(const CommPattern& pattern, Draw&& draw) {
  const auto messages = pattern.messages();
  const std::size_t lanes = lane_time_.size();
  const bool auditing = audit::enabled();
  obs::Metrics* const om = live_metrics();
  std::size_t processed = 0;
  for (;;) {
    std::int32_t lane = loser_[0];
    const auto li = static_cast<std::size_t>(lane);
    if (lane_next_[li] == lane_end_[li]) break;  // every lane drained
    const sim::Micros t = lane_time_[li];
    const Message& m = messages[lane_next_[li]++];
    ++processed;

    // Injection.
    auto& cpu = cpu_free_[static_cast<std::size_t>(m.src)];
    cpu = std::max(cpu, t);
    sim::Micros cost = (params_.o_send + params_.copy_send * m.bytes) *
                       clipped_jitter(draw(), params_.jitter);
    if (m.bytes >= params_.bulk_threshold) cost += params_.bulk_setup;
    cpu += cost;
    const sim::Micros departure = cpu;
    const sim::Micros arrival = departure + params_.t_lat;

    // Ejection port with distinct-sender arbitration penalty.
    auto& q = queues_[static_cast<std::size_t>(m.dst)];
    q.retire_until(arrival);
    const auto held = q.find_sender(m.src);
    const bool holds = held != q.per_sender.end() && held->first == m.src;
    const int others = q.distinct() - (holds ? 1 : 0);
    const double mult = 1.0 + params_.kappa_hotspot * std::min(others, 3);
    const sim::Micros service =
        (params_.t_eject + params_.eject_byte * m.bytes) * mult *
        clipped_jitter(draw(), params_.jitter);
    auto& port = port_free_[static_cast<std::size_t>(m.dst)];
    const sim::Micros admission_begin = std::max(arrival, port);
    const sim::Micros admission_end = admission_begin + service;
    port = admission_end;
    if (holds) {
      ++held->second;
    } else {
      // Sorted insert into the per-port arbitration window: bounded by the
      // distinct senders in flight at one port, and the capacity persists
      // across drains.
      q.per_sender.insert(held, {m.src, 1});
    }
    // Pending-window append: bounded by the arrivals in flight at one port
    // (retire_until compacts it), and the capacity persists across drains.
    q.entries.emplace_back(
        admission_end, m.src);
    if (queue_stamp_[static_cast<std::size_t>(m.dst)] != queue_epoch_) {
      queue_stamp_[static_cast<std::size_t>(m.dst)] = queue_epoch_;
      touched_queues_.push_back(m.dst);
    }
    if (om != nullptr) {
      om->peak(obs::builtin().fat_tree_port_queue_peak, q.pending());
    }

    // Backpressure: excessive ejection wait stalls the sender.
    const sim::Micros wait = admission_begin - arrival;
    if (wait > params_.capacity_slack) {
      cpu += wait - params_.capacity_slack;
    }

    // Receive handling on the destination CPU.
    auto& rf = recv_free_[static_cast<std::size_t>(m.dst)];
    const sim::Micros handling = (params_.o_recv + params_.copy_recv * m.bytes) *
                                 clipped_jitter(draw(), params_.jitter);
    rf = std::max(rf, admission_end) + handling;

    if (auditing && !(cost >= 0.0 && service >= 0.0 && handling >= 0.0 &&
                      std::isfinite(cost + service + handling))) {
      audit::fail("clock-monotonicity", "fat-tree",
                  "message " + std::to_string(m.src) + "->" +
                      std::to_string(m.dst) + " of " + std::to_string(m.bytes) +
                      " bytes costs " + std::to_string(cost) + " us to inject, " +
                      std::to_string(service) + " us to eject, " +
                      std::to_string(handling) + " us to receive");
    }

    // Replay the lane's next event (or +inf once drained) up the tree.
    lane_time_[li] = lane_next_[li] < lane_end_[li]
                         ? cpu
                         : std::numeric_limits<sim::Micros>::infinity();
    for (std::size_t node = (li + lanes) >> 1; node > 0; node >>= 1) {
      const std::int32_t other = loser_[node];
      if (lane_first(other, lane)) {
        loser_[node] = lane;
        lane = other;
      }
    }
    loser_[0] = lane;
  }
  if (auditing) {
    // The event loop must inject every message exactly once; a scheduling
    // bug (missed re-enqueue, duplicate cursor advance) breaks conservation.
    if (processed != pattern.size()) {
      audit::fail("packet-conservation", "fat-tree",
                  "injected " + std::to_string(processed) + " of " +
                      std::to_string(pattern.size()) + " messages");
    }
    const auto senders = pattern.senders();
    for (std::size_t i = 0; i < lanes; ++i) {
      if (lane_next_[i] != lane_end_[i]) {
        const auto sent = static_cast<std::size_t>(pattern.send_count(senders[i]));
        audit::fail("packet-conservation", "node " + std::to_string(senders[i]),
                    "send queue stopped at message " +
                        std::to_string(sent - (lane_end_[i] - lane_next_[i])) +
                        " of " + std::to_string(sent));
      }
    }
    audit::count_check();
  }
}

void FatTree::drain(sim::Micros t) {
  // Every stored CPU time is <= t at a barrier, so raising the floor is
  // equivalent to writing all P entries; ports and queues untouched since
  // the last drain are already quiescent.
  cpu_floor_ = t;
  for (const std::int32_t dst : touched_queues_) {
    auto& pf = port_free_[static_cast<std::size_t>(dst)];
    pf = std::min(pf, t);
    queues_[static_cast<std::size_t>(dst)].clear();
  }
  touched_queues_.clear();
  ++queue_epoch_;
}

void FatTree::reset() {
  std::fill(cpu_free_.begin(), cpu_free_.end(), 0.0);
  std::fill(port_free_.begin(), port_free_.end(), 0.0);
  cpu_floor_ = 0.0;
  for (auto& q : queues_) q.clear();
  touched_queues_.clear();
  ++queue_epoch_;
}

std::string FatTree::audit_leak_report(sim::Micros t) const {
  for (std::size_t p = 0; p < cpu_free_.size(); ++p) {
    const sim::Micros c = std::max(cpu_floor_, cpu_free_[p]);
    if (c != t) {
      return "node " + std::to_string(p) + " cpu busy until " +
             std::to_string(c) + " us at barrier " + std::to_string(t) + " us";
    }
  }
  for (std::size_t p = 0; p < port_free_.size(); ++p) {
    if (port_free_[p] > t) {
      return "ejection port " + std::to_string(p) + " held until " +
             std::to_string(port_free_[p]) + " us past barrier " +
             std::to_string(t) + " us";
    }
  }
  for (std::size_t p = 0; p < queues_.size(); ++p) {
    const auto& q = queues_[p];
    if (q.pending() != 0 || q.distinct() != 0) {
      return "ejection queue " + std::to_string(p) + " still holds " +
             std::to_string(q.pending()) + " entries (" +
             std::to_string(q.distinct()) + " distinct senders) at barrier";
    }
  }
  return {};
}

}  // namespace pcm::net
