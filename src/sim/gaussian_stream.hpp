#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/rng.hpp"

// Draw-ahead standard normals with the exact bits of Rng::next_gaussian.
//
// A Box-Muller draw is a pure function of the two Rng words it consumes
// (sim::box_muller), never of simulated state, so a consumer that knows how
// many draws it will take can have them computed ahead of use on idle cores
// and still read the same values in the same order. The FatTree takes its
// three jitter draws per message this way on routes of at least one chunk.
//
// Who computes what:
//   - the owning (routing) thread draws the words from the Rng in stream
//     order, a few chunks ahead of its read position, and publishes each
//     chunk as the Rng state at its first word (the words themselves are
//     not stored, so they never travel between cores);
//   - process-wide helper threads claim published chunks, regenerate their
//     words from that state and transform them;
//   - when the owner reaches a chunk that no helper has finished, it
//     transforms that chunk itself instead of waiting. A helper still busy
//     on it finishes into memory nobody reads and frees the chunk's slot.
// The owner therefore never blocks on a helper, and with no helper at all it
// does the same work as a loop of next_gaussian() calls. After `count`
// draws have been read, the Rng is exactly where `count` next_gaussian()
// calls would have left it.
//
// Threads: at most min(2, usable CPUs - 1) helpers exist in the process,
// however many streams are open at once, with usable CPUs counted from the
// process's affinity mask. They start with the first stream, sleep on an
// atomic wait whenever no stream is open, and while one is, poll its chunks
// with a pause between polls. The owner never takes a lock a helper holds.
//
// Memory: an open stream borrows one board of kMaxSlots chunk buffers
// (about 56 KB) from a process-wide pool and returns it when it ends, so
// steady-state streams allocate nothing. Boards are recycled, never freed
// while helpers run, so ending a stream, or unwinding out of one while a
// helper is still writing a chunk, never frees memory the helper touches.

namespace pcm::sim {

class GaussianStream {
 public:
  /// Draws per chunk: the unit a helper transforms, and the smallest count
  /// worth a stream.
  static constexpr std::size_t kChunkDraws = 1024;
  /// Chunks the owner publishes ahead of its read position.
  static constexpr std::size_t kAheadChunks = 4;
  /// Chunk buffers per stream: the chunks ahead plus room for the one being
  /// read and one a helper may still be finishing after the owner took it.
  static constexpr std::size_t kMaxSlots = kAheadChunks + 2;

  GaussianStream() = default;
  ~GaussianStream();
  GaussianStream(const GaussianStream&) = delete;
  GaussianStream& operator=(const GaussianStream&) = delete;

  /// True when `count` draws are worth a stream: at least one chunk, and
  /// the process has at least one helper thread.
  [[nodiscard]] static bool worth_streaming(std::size_t count);

  /// Helper threads in the process (0 when only one CPU is usable).
  [[nodiscard]] static int helper_threads();

  /// Start a stream of exactly `count` draws from `rng`. The caller must
  /// read all `count` through next_streamed() before end_stream() for the
  /// Rng to end where `count` next_gaussian() calls would leave it.
  void begin_stream(Rng& rng, std::size_t count);

  /// The stream's next draw: bit for bit the next rng.next_gaussian().
  double next_streamed() {
    if (pos_ == end_) take_chunk();
    return cur_[pos_++];
  }

  /// Close the stream; idempotent. Chunks drawn ahead and not read are
  /// dropped (their words stay consumed from the Rng).
  void end_stream();

  /// begin_stream() for one scope, end_stream() on leaving it, also when
  /// an exception unwinds the scope.
  class Scope {
   public:
    Scope(GaussianStream& stream, Rng& rng, std::size_t count)
        : stream_(stream) {
      stream_.begin_stream(rng, count);
    }
    ~Scope() { stream_.end_stream(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    GaussianStream& stream_;
  };

  struct Board;  ///< Chunk buffers shared with the helpers (gaussian_stream.cpp).

 private:
  void take_chunk();
  void draw_ahead();
  void release_held();

  Board* board_ = nullptr;  ///< Borrowed from the pool while a stream is open.
  Rng* rng_ = nullptr;
  std::size_t undrawn_ = 0;    ///< Draws not yet taken from the Rng.
  std::uint64_t next_seq_ = 0; ///< Stream position of the next chunk drawn.
  std::size_t ahead_[kMaxSlots] = {};  ///< Published slots, in stream order.
  std::size_t ahead_head_ = 0;
  std::size_t ahead_count_ = 0;
  std::size_t held_ = kMaxSlots;  ///< Slot whose helper output is being read.
  bool posted_ = false;           ///< Registered with the helper threads.
  const double* cur_ = nullptr;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

}  // namespace pcm::sim
