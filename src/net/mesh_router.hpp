#pragma once

#include <vector>

#include "net/router.hpp"
#include "sim/arena.hpp"

// The Parsytec GCel network: an 8x8 mesh of T805 transputers programmed
// through HPVM (homogeneous PVM on top of Parix). As the paper's Table 1
// shows, software cost dominates this machine: a 4-byte message in a full
// h-relation costs g = 4480 µs while the per-byte cost is only 9.3 µs —
// a ratio of ~120, which is why block transfers matter so much there
// (Section 6).
//
// Model:
//   - Each node has ONE CPU that first issues its sends (o_send + per-byte
//     copy each, jittered), then processes its receives in arrival order
//     (o_recv + per-byte copy each). The large o_recv reflects PVM receive
//     matching/unpacking; it is what makes random h-relations (whose maximum
//     receive load exceeds h) ~25-35% more expensive than h-h permutations,
//     and multinode scatters (receive load h/sqrt(P)) up to ~9x cheaper
//     (Figs 7 and 14).
//   - Messages traverse the mesh with XY store-and-forward routing; each
//     directed link is held for t_hop_lat + bytes * t_link_byte per message.
//   - Receiver backlog: o_recv is ~9x o_send, so a sender that streams many
//     messages at one receiver fills PVM's buffers; each receive processed
//     with more than `backlog_tolerance` messages queued pays
//     backlog_penalty per excess message (buffer allocation churn). This is
//     what ruins the unsynchronised word-by-word bitonic sort (Fig 6) and
//     why the paper's fix — a barrier after every 256 messages — works.
//   - Desynchronisation: when supersteps are chained without barriers the
//     per-processor clocks spread (per-message jitter amplified by the
//     max-plus coupling of the communication pattern; permutations with
//     several independent cycles diverge linearly — which is also why the
//     paper found the timings "noisy and unpredictable"). Once the spread
//     exceeds `desync_tolerance`, messages from many logical steps coexist
//     in PVM's buffers and every receive pays a surcharge proportional to
//     the excess — the "drift out of sync" elevation of Fig 7. A barrier
//     resets the spread.
//
// The router keeps per-node CPU and per-link availability across calls; a
// machine barrier() drains them. Both are stored sparsely: CPU availability
// is `max(cpu_floor_, cpu_free_[p])` so drain() raises the floor in O(1)
// instead of writing P entries (every stored value is provably <= the
// barrier instant), and links touched since the last drain are tracked in an
// epoch-stamped list so drain() clips only those. route() itself walks the
// pattern's active-sender/receiver views and never loops over all P nodes.

namespace pcm::net {

struct MeshRouterParams {
  int width = 8;   ///< Mesh columns.
  int height = 8;  ///< Mesh rows.
  sim::Micros o_send = 350.0;     ///< Sender CPU per message.
  sim::Micros o_recv = 4050.0;    ///< Receiver CPU per message (PVM matching).
  sim::Micros copy_send = 3.4;    ///< Sender per-byte packing cost.
  sim::Micros copy_recv = 3.2;    ///< Receiver per-byte unpacking cost.
  sim::Micros t_hop_lat = 40.0;   ///< Store-and-forward latency per hop.
  sim::Micros t_link_byte = 0.12; ///< Link transmission per byte per hop.
  double jitter = 0.03;           ///< Per-message multiplicative CPU jitter.
  double node_bias = 0.002;       ///< Per-trial per-node speed spread (sigma).
  sim::Micros desync_tolerance = 150000.0; ///< Spread absorbed by PVM buffers.
  double desync_penalty = 0.1;    ///< Receive surcharge per µs of excess spread.
  sim::Micros max_desync_surcharge = 25000.0;  ///< Cap per message.
  long backlog_tolerance = 512;   ///< Buffered messages a receiver absorbs.
  sim::Micros backlog_penalty = 3.0;  ///< Per queued message beyond that
                                      ///< (PVM buffer management churn).
};

/// Default parameters on the squarest width x height mesh of `procs` nodes,
/// the wider side as width (8x8 for 64, 8x6 for 48, 7x1 for 7). The GCel,
/// the T800 grid and MachineBuilder::procs() shape their meshes with it.
[[nodiscard]] MeshRouterParams squarest_mesh(int procs);

class MeshRouter final : public Router {
 public:
  /// Throws std::invalid_argument unless width * height == procs and
  /// o_send, copy_send, t_hop_lat and t_link_byte are >= 0: route() relies
  /// on each sender's departures, and the arrivals over each link, being
  /// non-decreasing.
  MeshRouter(int procs, MeshRouterParams params = {}, std::uint64_t seed = 1);

  void route(const CommPattern& pattern, sim::ClockSet& clocks,
             sim::Rng& rng) override;

  void drain(sim::Micros t) override;
  void reset() override;
  void new_trial(sim::Rng& rng) override { redraw_biases(rng); }
  [[nodiscard]] std::string audit_leak_report(sim::Micros t) const override;

  [[nodiscard]] const MeshRouterParams& params() const { return params_; }

  /// Manhattan hop count between two nodes under XY routing.
  [[nodiscard]] int hops(int a, int b) const;

  /// Redraw the per-node speed biases (a new "trial" in paper terms).
  void redraw_biases(sim::Rng& rng);

 private:
  [[nodiscard]] int link_index(int x, int y, int dir) const;

  /// Node p's CPU availability: stored value or the drain floor, whichever
  /// is later (drain() raises the floor instead of writing P entries).
  [[nodiscard]] sim::Micros cpu_avail(int p) const {
    return std::max(cpu_floor_, cpu_free_[static_cast<std::size_t>(p)]);
  }

  /// Claim directed link `li` until `busy_until`, registering it in the
  /// touched list so the next drain() clips it in O(touched).
  void claim_link(std::size_t li, sim::Micros busy_until);

  MeshRouterParams params_;
  std::vector<sim::Micros> cpu_free_;
  sim::Micros cpu_floor_ = 0.0;
  std::vector<sim::Micros> link_free_;
  std::vector<std::uint64_t> link_stamp_;  ///< epoch of last touch.
  std::vector<std::size_t> touched_links_;
  std::uint64_t link_epoch_ = 1;
  std::vector<double> bias_;

  // Per-call scratch in the arena (reset at the top of route(), so route()
  // allocates nothing in steady state): two buffers of timed messages that
  // the run merges ping-pong between, and the sender run bounds.
  sim::Arena arena_;
  /// A timed message: its departure (seq = canonical index) or its
  /// arrival (seq = departure rank). (t, seq) orders both uniquely.
  struct Timed {
    sim::Micros t;
    std::uint32_t seq;
    std::int32_t bytes;
  };
  struct Coord {
    int x;
    int y;
  };
  std::vector<Coord> coord_;  ///< node id -> mesh column and row.
  /// A receiver's arrivals form one run per incoming link (E, W, S, N
  /// moving) plus one for messages to itself.
  static constexpr std::size_t kLinkRuns = 5;
  /// Slot of the run that a message from `src` joins at `dst`.
  [[nodiscard]] std::size_t run_slot(int src, int dst) const;
  /// Per node and run: an arrival count, then a counting-sort cursor that
  /// ends at the run's end. Only active receivers' slots are touched.
  std::vector<std::size_t> recv_end_;
};

}  // namespace pcm::net
