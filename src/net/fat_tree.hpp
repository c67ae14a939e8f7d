#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/router.hpp"
#include "sim/gaussian_stream.hpp"

// The CM-5 data network: a 4-ary fat tree with large bisection bandwidth.
// For 64 nodes the internal links are rarely the bottleneck; communication
// cost is dominated by the node interfaces: message injection costs sender
// CPU, ejection serialises at the destination port, and active-message
// handling costs receiver CPU. This is why the paper finds BSP accurate for
// balanced patterns (Figs 9, 15) but ~21% optimistic for the unstaggered
// matrix multiply (Fig 4): when several processors converge on one
// destination the ejection port backs up and arbitration/retry overhead
// inflates both the port service and the receive handling. Staggering the
// sends keeps every port fed by a single sender and removes the penalty —
// without any special-casing in this model.
//
// Model (event-driven in global departure order):
//   1. injection: per node, serial CPU, o_send + bytes*copy_send per message
//      (+ bulk_setup for messages >= bulk_threshold bytes — the Split-C
//      bulk-transfer rendezvous that produces the measured ell ~ 75 µs);
//   2. ejection: per destination FIFO port, service t_eject +
//      bytes*eject_byte, inflated by (1 + kappa_hotspot*min(distinct-1, 3))
//      where `distinct` counts the senders with messages queued at the port;
//   3. backpressure: when a message waits at the ejection port longer than
//      `capacity_slack` (the finite network capacity of LogP), the *sender*
//      is stalled by the excess before it may inject again — this is what
//      makes the unstaggered matrix multiply ~20-30% slower (Fig 4);
//   4. receive handling: per destination serial CPU, o_recv + bytes*copy_recv.
//
// All state is held sparsely so a route() call costs O(active messages):
// the event queue is a tournament tree over the pattern's active senders,
// each ejection port tracks its queued senders in a small sorted
// (sender, count) vector instead of a P-wide table, ports touched this
// superstep are kept in a list so drain() clips only those, and node CPU
// availability is `max(cpu_floor_, stored)` so drain() is one floor
// assignment, not P writes.
//
// Every message takes three jitter draws, in a fixed order, and nothing
// else reads the Rng, so a route takes exactly 3 * pattern.size() draws. A
// route of at least one sim::GaussianStream chunk of draws reads them from
// a stream that computes them ahead on helper threads; smaller routes call
// next_gaussian() inline. Both read the same values and leave the Rng in the
// same state.

namespace pcm::net {

// The CM-5 node interface is *send-overhead dominated* (Split-C issues
// remote stores; the receive side is handled largely by the network
// interface), in contrast to the receive-dominated PVM stack of the GCel.
// This is why the paper finds scatter patterns barely cheaper than full
// h-relations on the CM-5 (Fig 15) while they are ~9x cheaper on the GCel
// (Fig 14).
struct FatTreeParams {
  sim::Micros o_send = 8.1;       ///< Sender CPU per message.
  sim::Micros copy_send = 0.10;   ///< Sender per-byte cost.
  sim::Micros t_lat = 3.0;        ///< Fat-tree transit latency.
  sim::Micros t_eject = 2.5;      ///< Ejection port service per message.
  sim::Micros eject_byte = 0.04;  ///< Ejection per-byte service.
  sim::Micros o_recv = 1.3;       ///< Receive handler CPU per message.
  sim::Micros copy_recv = 0.13;   ///< Receive per-byte copy.
  double kappa_hotspot = 0.15;    ///< Penalty per extra distinct sender.
  sim::Micros capacity_slack = 30.0;  ///< Ejection wait tolerated before the
                                      ///< network backpressure stalls senders.
  int bulk_threshold = 64;        ///< Bytes from which a message is "bulk".
  sim::Micros bulk_setup = 60.0;  ///< Rendezvous cost for bulk messages.
  double jitter = 0.02;           ///< Per-message service jitter.
};

class FatTree final : public Router {
 public:
  /// Throws std::invalid_argument unless every cost and factor of `params`
  /// (all but bulk_threshold) is >= 0, which also rejects NaN: a negative
  /// cost would move a sender's CPU backwards.
  FatTree(int procs, FatTreeParams params = {});

  void route(const CommPattern& pattern, sim::ClockSet& clocks,
             sim::Rng& rng) override;

  void drain(sim::Micros t) override;
  void reset() override;
  [[nodiscard]] std::string audit_leak_report(sim::Micros t) const override;

  [[nodiscard]] const FatTreeParams& params() const { return params_; }

 private:
  [[nodiscard]] sim::Micros cpu_avail(int p) const {
    return std::max(cpu_floor_, cpu_free_[static_cast<std::size_t>(p)]);
  }

  /// The event loop, with `draw()` yielding the next standard normal.
  template <class Draw>
  void route_events(const CommPattern& pattern, Draw&& draw);

  /// Lane `a`'s next event precedes lane `b`'s: keyed (time, sender), and
  /// lanes are in ascending sender order, so keys are distinct.
  [[nodiscard]] bool lane_first(std::int32_t a, std::int32_t b) const {
    const sim::Micros ta = lane_time_[static_cast<std::size_t>(a)];
    const sim::Micros tb = lane_time_[static_cast<std::size_t>(b)];
    return ta < tb || (ta == tb && a < b);
  }

  FatTreeParams params_;
  std::vector<sim::Micros> cpu_free_;   ///< Per-node CPU (sends + receives).
  sim::Micros cpu_floor_ = 0.0;         ///< drain() raises this instead.
  std::vector<sim::Micros> port_free_;  ///< Per-node ejection port.

  // Per-destination port queue used for the distinct-sender count. The FIFO
  // is a vector with a head cursor (no deque node allocation per queue),
  // compacted once the head passes kCompactAt so it holds about as many
  // entries as are pending, and the per-sender occupancy a small sorted
  // vector — both empty and allocation-free for the (P - active) untouched
  // destinations.
  struct PortQueue {
    std::vector<std::pair<sim::Micros, std::int32_t>> entries;  ///< (admission end, sender)
    std::size_t head = 0;
    using SenderCount = std::pair<std::int32_t, std::int32_t>;
    std::vector<SenderCount> per_sender;  ///< (sender, count>0), sorted.

    static constexpr std::size_t kCompactAt = 32;

    [[nodiscard]] std::size_t pending() const { return entries.size() - head; }
    [[nodiscard]] int distinct() const { return static_cast<int>(per_sender.size()); }
    /// First per_sender entry whose sender is not below `sender`.
    [[nodiscard]] std::vector<SenderCount>::iterator find_sender(std::int32_t sender);
    /// Retire the entries whose admission ended by `t`.
    void retire_until(sim::Micros t);
    void clear();
  };
  std::vector<PortQueue> queues_;

  // Sparse-drain bookkeeping: destinations whose port/queue was touched
  // since the last drain.
  std::vector<std::uint64_t> queue_stamp_;
  std::vector<std::int32_t> touched_queues_;
  std::uint64_t queue_epoch_ = 1;

  // Per-call scratch, reused across calls (initialised per call for the
  // pattern's active nodes only). A lane is one active sender, in ascending
  // sender order; its queue is messages()[lane_next_, lane_end_).
  std::vector<sim::Micros> recv_free_;
  std::vector<sim::Micros> lane_time_;  ///< Next event; +inf once drained.
  std::vector<std::size_t> lane_next_;
  std::vector<std::size_t> lane_end_;
  /// Loser tree over the lanes: [0] is the winner, [1, lanes) the loser at
  /// each internal node; lane i is leaf lanes + i.
  std::vector<std::int32_t> loser_;
  std::vector<std::int32_t> winner_scratch_;  ///< Per-node winners at build.

  sim::GaussianStream jitter_;
};

}  // namespace pcm::net
