#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/message.hpp"

// CommPattern: one communication step's worth of messages, kept as ordered
// per-sender queues. The order is semantically meaningful — a "staggered"
// schedule differs from an unstaggered one only in this order, and the
// routers consume messages round-by-round, which is how the paper's
// staggering effects (Section 5.1, Fig 4) arise in this library.
//
// Storage is a flat contiguous message array plus CSR-style per-sender
// offsets, with sparse active-sender/active-receiver sets, so every
// operation — construction, views, analysis, clear() — costs O(active
// messages), never O(P). Messages are staged in add() order; the canonical
// (sender, queue-position) order is produced lazily on first access, and is
// free (no copy, no sort) when messages were added in non-decreasing sender
// order, which is how the kernels emit them. The calibration generators
// stage senders shuffled; their sender list is sorted, or, once at least
// P/16 PEs send, rebuilt by one pass over the dense counts, which is still
// O(active) at that density. At 64K–1M PEs a
// pattern touching two processors is as cheap as one on a 4-PE machine;
// only the constructor pays a one-time O(P) zero-fill for the dense count
// arrays, amortised across the pattern's lifetime of clear()/add() cycles.
//
// Lazy canonicalisation mutates internal caches from const accessors, so a
// CommPattern must not be shared across threads until one thread has
// triggered it through messages() and receivers() (the exec plane gives
// each sweep worker its own patterns). identity() takes its stamp the same
// way, on first call: call it once before sharing, too.
//
// The analysis helpers implement the paper's vocabulary: an h-relation
// (every processor sends and receives at most h messages), a 1-h relation
// (Section 3.1), and the E-BSP (M, h1, h2)-relation of Section 2.3.

namespace pcm::net {

class CommPattern {
 public:
  explicit CommPattern(int procs);

  [[nodiscard]] int procs() const { return procs_; }

  /// Append a message to `src`'s ordered send queue.
  void add(int src, int dst, int bytes);
  void add(const Message& m);

  /// Pre-size the staging buffers for `expected_messages` add() calls so a
  /// hot loop stages without reallocating (capacity persists across
  /// clear()). Purely an optimisation; add() works without it.
  void reserve(std::size_t expected_messages);

  /// Number of messages queued in total.
  [[nodiscard]] std::size_t size() const { return stage_.size(); }
  [[nodiscard]] bool empty() const { return stage_.empty(); }

  // --- span views (the hot-path API) ---------------------------------------

  /// All messages in canonical (sender, queue position) order, as one
  /// contiguous span. Valid until the next add()/clear().
  [[nodiscard]] std::span<const Message> messages() const;

  /// Ordered queue of messages sent by processor p — an O(1) subspan of
  /// messages().
  [[nodiscard]] std::span<const Message> sends_of(int p) const;

  /// Ascending ids of processors that send >= 1 message.
  [[nodiscard]] std::span<const int> senders() const;

  /// Ascending ids of processors that receive >= 1 message.
  [[nodiscard]] std::span<const int> receivers() const;

  /// Messages sent by / received by processor p. O(1).
  [[nodiscard]] int send_count(int p) const {
    return send_count_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] int receive_count(int p) const {
    return recv_count_[static_cast<std::size_t>(p)];
  }

  /// Total payload bytes. O(1).
  [[nodiscard]] long total_bytes() const { return total_bytes_; }

  void clear();

  // --- analysis (paper Section 2); all O(active) ---------------------------

  /// h1: max messages sent by any processor.
  [[nodiscard]] int max_sent() const;
  /// h2: max messages received by any processor.
  [[nodiscard]] int max_received() const;
  /// h = max(h1, h2): the pattern is an h-relation of this degree.
  [[nodiscard]] int h_degree() const;

  /// Processors that send or receive at least one message.
  [[nodiscard]] int active_processors() const;

  /// True if every processor sends <= 1 and receives <= 1 message
  /// (a partial permutation; "full" if exactly P messages).
  [[nodiscard]] bool is_partial_permutation() const;
  [[nodiscard]] bool is_full_permutation() const;

  struct Relation {
    long total = 0;  ///< M: total messages routed.
    int h_send = 0;  ///< h1.
    int h_recv = 0;  ///< h2.
  };
  /// The E-BSP (M, h1, h2) classification of this pattern.
  [[nodiscard]] Relation classify() const;

  /// 64-bit content hash (order-sensitive) over the canonical message
  /// stream, for router memoisation. Hash equality is NOT identity — memo
  /// users must verify against messages() on hit (see DeltaRouter).
  [[nodiscard]] std::uint64_t hash() const;

  /// A stamp of this pattern as it stands: taken on first call from one
  /// process-wide counter, kept until add() or clear() drops it. Equal
  /// stamps mean the same contents without a look at them: two patterns
  /// built apart never share one, whatever they hold, and neither does a
  /// pattern changed in place (a copy shares its source's stamp until
  /// either changes). Never 0. Lets a router skip re-walking a pattern it
  /// has just costed (DeltaRouter::step_cost).
  [[nodiscard]] std::uint64_t identity() const;

 private:
  /// Sort the senders and build the CSR offsets / canonical order.
  void ensure_canonical() const;
  /// Out-of-order senders numbering at least P / kDenseSenderDivisor are
  /// put in order by one pass over the dense counts instead of a sort.
  static constexpr std::size_t kDenseSenderDivisor = 16;
  /// Sort the receivers. Only receivers() and active_processors() need
  /// them in order (FatTree and MeshRouter read them; DeltaRouter does
  /// not), so they are sorted on first read, not with the senders.
  void ensure_receivers_sorted() const;

  int procs_;
  long total_bytes_ = 0;
  std::vector<Message> stage_;   ///< add() order; flat and contiguous.
  bool stage_sorted_ = true;     ///< non-decreasing src so far?

  std::vector<int> send_count_;  ///< dense; maintained sparsely via senders_.
  std::vector<int> recv_count_;  ///< dense; maintained via receivers_.

  // Lazily-canonicalised caches (see class comment re: thread safety).
  mutable std::vector<int> senders_;    ///< first-touch order, sorted lazily.
  mutable std::vector<int> receivers_;  ///< first-touch order, sorted lazily.
  mutable bool receivers_sorted_ = true;  ///< sorted since the last add?
  mutable std::vector<Message> sorted_;        ///< counting-sorted stage_.
  mutable std::vector<std::size_t> begin_of_;  ///< CSR offsets, active only.
  mutable std::vector<std::size_t> cursor_;    ///< counting-sort scratch.
  mutable bool canonical_ready_ = false;
  mutable bool canonical_is_stage_ = true;
  mutable std::uint64_t identity_ = 0;  ///< 0 = not stamped since the last change.
};

/// Convenience builders used by tests and the calibration micro-benchmarks.
namespace patterns {

/// perm[i] = destination of processor i's single message; perm[i] < 0 means
/// processor i stays silent. Every message carries `bytes`.
CommPattern from_permutation(std::span<const int> perm, int bytes);

/// The bit-flip exchange pattern of bitonic step with partner distance
/// 2^bit: every processor sends `msgs` messages of `bytes` to (id XOR 2^bit).
CommPattern bit_flip(int procs, int bit, int msgs, int bytes);

}  // namespace patterns

}  // namespace pcm::net
