#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/router.hpp"

// The MasPar MP-1 global router: a circuit-switched, multi-stage delta
// network with a greedy routing scheme (paper Section 3.1). The P processor
// elements are grouped into clusters of 16 that share a single router
// channel; the channels are interconnected by a radix-4 delta network.
//
// Routing proceeds in "waves": in each wave every cluster channel may open
// at most one circuit (head-of-line from its FIFO of pending sends), a
// circuit needs its destination cluster channel plus one link per delta
// stage, and conflicting circuits wait for a later wave. A wave lasts for
// the circuit-establishment time plus the serial transmission time of the
// largest payload it carries.
//
// Everything the paper observes on the MasPar falls out of this mechanism:
//   - 1-h relations cost roughly t_setup + (waves ~ h) * t_wave, with large
//     variance when several destinations share a cluster channel (Fig 1);
//   - partial permutations with P' active PEs need only ~P'/64 waves, giving
//     the T_unb(P') curve (Fig 2);
//   - XOR/bit-flip exchange patterns (bitonic sort) are conflict-free inside
//     the delta network and finish in exactly 16 waves, about twice as fast
//     as a random full permutation (Figs 5/10/17);
//   - long messages amortise circuit establishment (MP-BPRAM sigma/ell).
//
// The router is SIMD-synchronous: a communication step starts when the
// slowest PE is ready and all PEs complete together.
//
// The wave allocator runs over the pattern's canonical message span: since
// canonical order is ascending by sender, the per-cluster FIFOs are
// contiguous subranges of it — building them is one walk over the active
// messages, no per-PE scan and no queue allocation. Link/destination claim
// tables are epoch-stamped (one epoch per wave) so they are never cleared.
// Each cluster caches its head-of-line circuit (destination cluster plus
// one link per inner stage), computed when the head advances, so a probe
// that is deferred wave after wave costs only epoch loads. The last stage
// needs no link table: its link sits on the destination's own address, so
// it is busy exactly when the destination channel is.

namespace pcm::net {

struct DeltaRouterParams {
  int cluster_size = 16;  ///< PEs per router channel.
  int radix = 4;          ///< Delta network switch radix.
  sim::Micros t_setup = 73.0;    ///< Per-step router invocation overhead.
  sim::Micros t_circuit = 21.0;  ///< Circuit establishment per wave.
  sim::Micros t_byte = 2.7;      ///< Serial per-byte channel time.
  /// Ablation knob: pretend the interconnect between cluster channels is an
  /// ideal crossbar (no internal stage conflicts). Random permutations then
  /// cost the same as bit-flip patterns and the Fig 5/10 model overestimate
  /// disappears.
  bool ideal_crossbar = false;
};

class DeltaRouter final : public Router {
 public:
  /// Throws std::invalid_argument unless procs is a whole number of
  /// clusters and the cluster count is a power of the radix.
  DeltaRouter(int procs, DeltaRouterParams params = {});

  void route(const CommPattern& pattern, sim::ClockSet& clocks,
             sim::Rng& rng) override;

  void drain(sim::Micros t) override;
  void reset() override;

  [[nodiscard]] const DeltaRouterParams& params() const { return params_; }
  [[nodiscard]] int clusters() const { return clusters_; }
  [[nodiscard]] int stages() const { return stages_; }

  struct StepCost {
    int waves = 0;
    int conflicts = 0;  ///< Head-of-line circuits deferred to a later wave.
    sim::Micros duration = 0.0;
  };

  /// Full cost of routing `pattern` in isolation. A pattern whose
  /// identity() is the last costed one's gets that cost back before any
  /// hashing. Otherwise the cost is memoised by pattern hash, verified
  /// against the canonical message stream on every hit — a 64-bit hash
  /// collision degrades to a recompute, never a wrong cost. The reference
  /// is valid until the next step_cost call.
  [[nodiscard]] const StepCost& step_cost(const CommPattern& pattern);

  /// Duration of routing `pattern` in isolation (what route() adds to the
  /// common start time). Memoised by pattern hash.
  [[nodiscard]] sim::Micros step_duration(const CommPattern& pattern);

  /// Number of waves the greedy circuit allocator needs (exposed for tests).
  [[nodiscard]] int wave_count(const CommPattern& pattern) const;

 private:
  [[nodiscard]] StepCost simulate(const CommPattern& pattern) const;

  /// step_cost() past the identity check: the hash-keyed memo.
  [[nodiscard]] const StepCost& memo_cost(const CommPattern& pattern);

  /// Cache the circuit of cluster `cl`'s head message `m`: its destination
  /// cluster and its link id at each inner stage.
  void cache_head(int cl, const Message& m) const;

  DeltaRouterParams params_;
  int clusters_;
  int stages_;
  /// Stages whose links are tracked: all but the last (see header comment),
  /// none on an ideal crossbar.
  int inner_stages_;
  /// low_span_[s] = radix^(stages-s-1): the address digits below stage s.
  std::vector<int> low_span_;

  struct MemoEntry {
    StepCost cost;
    std::vector<Message> canon;  ///< Canonical stream, the identity check.
  };
  static constexpr std::size_t kMemoMaxEntries = 16384;
  static constexpr std::size_t kMemoMaxBytes = std::size_t{64} << 20;
  mutable std::unordered_map<std::uint64_t, MemoEntry> memo_;
  mutable std::size_t memo_bytes_ = 0;
  /// identity() of the last pattern step_cost() costed (0 = none), and
  /// that cost.
  std::uint64_t last_identity_ = 0;
  StepCost last_cost_;

  // simulate() scratch, sized on first use and reused across calls
  // (epoch-stamped, so no per-call clearing).
  mutable std::vector<int> active_;                ///< clusters with pending sends.
  mutable std::vector<std::size_t> head_, tail_;   ///< per-cluster FIFO cursors.
  mutable std::vector<int> head_dst_;              ///< head's destination cluster.
  mutable std::vector<int> head_links_;  ///< head's inner-stage link ids, per cluster.
  mutable std::vector<std::uint64_t> link_used_;   ///< epoch of last claim.
  mutable std::vector<std::uint64_t> dest_used_;   ///< epoch of last claim.
  mutable std::uint64_t wave_epoch_ = 0;
};

}  // namespace pcm::net
