#include "sim/gaussian_stream.hpp"

#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace pcm::sim {

namespace {

// A chunk slot's life: the owner records in a Free slot the Rng state at
// the chunk's first word, walks its own Rng past the chunk's words, and
// publishes the slot (Ready). A helper claims it (Claimed) and marks it
// Done, or the owner takes it first (Taken) and frees it once it has
// transformed the words itself. An owner that reaches a Claimed chunk marks
// it Orphaned and transforms the words itself; the helper then frees the
// slot when it finishes. Only the owner moves a slot out of Free, Done or
// Taken.
enum SlotState : int { kFree, kReady, kClaimed, kDone, kTaken, kOrphaned };

/// The `n` draws that start at `start`'s state: the words are regenerated
/// from the copy, so they never cross between threads.
void transform_chunk(Rng start, std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t first = start.next_u64();
    const std::uint64_t second = start.next_u64();
    out[i] = box_muller(first, second);
  }
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace

struct GaussianStream::Board {
  struct alignas(64) Slot {
    std::atomic<int> state{kFree};
    /// Stream position, read by helpers before they claim (a hint only:
    /// the claim itself is the compare-exchange on `state`).
    std::atomic<std::uint64_t> seq{0};
    std::size_t count = 0;  ///< Draws in the chunk (<= kChunkDraws).
    Rng start;              ///< The Rng at the chunk's first word.
  };

  Board() : gaussians(kMaxSlots * kChunkDraws), own(kChunkDraws) {}

  [[nodiscard]] double* gaussians_of(std::size_t s) {
    return gaussians.data() + s * kChunkDraws;
  }

  /// Claim the earliest Ready chunk, transform it and publish it; false if
  /// none was Ready. Runs on helper threads.
  bool help_one_chunk() {
    std::size_t best = kMaxSlots;
    std::uint64_t best_seq = 0;
    for (std::size_t s = 0; s < kMaxSlots; ++s) {
      if (slots[s].state.load(std::memory_order_relaxed) != kReady) continue;
      const std::uint64_t seq = slots[s].seq.load(std::memory_order_relaxed);
      if (best == kMaxSlots || seq < best_seq) {
        best = s;
        best_seq = seq;
      }
    }
    if (best == kMaxSlots) return false;
    Slot& slot = slots[best];
    int expected = kReady;
    if (!slot.state.compare_exchange_strong(expected, kClaimed,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
      return true;  // lost the race; poll again at once
    }
    transform_chunk(slot.start, slot.count, gaussians_of(best));
    expected = kClaimed;
    if (!slot.state.compare_exchange_strong(expected, kDone,
                                            std::memory_order_release,
                                            std::memory_order_relaxed)) {
      // The owner orphaned the chunk and transformed it itself.
      std::atomic_store_explicit(&slot.state, kFree, std::memory_order_release);
    }
    return true;
  }

  alignas(64) std::atomic<bool> open{false};  ///< Posted for helpers.
  std::atomic<int> helpers{0};                ///< Helpers serving it.
  std::size_t entry = 0;  ///< Owner-only: its entry in the posted table.
  std::array<Slot, kMaxSlots> slots;
  std::vector<double> gaussians;  ///< kChunkDraws per slot.
  std::vector<double> own;        ///< Owner-only: chunks it transforms.
};

namespace {

using Board = GaussianStream::Board;

// The process's helper threads, the boards of the streams open now, and
// every board ever made. Boards are recycled and never freed before the
// helpers are joined, so a helper may hold a pointer to any board at any
// time; a helper still finishing a chunk of a board that has moved on to
// another stream is covered by the slot protocol above. No helper takes a
// lock that a stream's owner takes: the owner posts and withdraws boards
// with atomics and wakes sleeping helpers through an atomic wait counter,
// so it never blocks on a helper.
class JitterHelpers {
 public:
  static JitterHelpers& instance() {
    static JitterHelpers helpers;
    return helpers;
  }

  [[nodiscard]] int thread_count() const {
    return static_cast<int>(threads_.size());
  }

  Board* acquire_board() {
    const std::lock_guard<std::mutex> lock(boards_mu_);
    if (idle_.empty()) {
      all_.push_back(std::make_unique<Board>());
      return all_.back().get();
    }
    Board* b = idle_.back();
    idle_.pop_back();
    return b;
  }

  void release_board(Board* board) {
    const std::lock_guard<std::mutex> lock(boards_mu_);
    idle_.push_back(board);
  }

  /// Make `board` visible to the helpers and wake those that sleep; false
  /// (and nothing posted) when every table entry is taken.
  bool post_board(Board& board) {
    std::atomic_store_explicit(&board.open, true, std::memory_order_release);
    for (std::size_t i = 0; i < posted_.size(); ++i) {
      Board* expected = nullptr;
      if (posted_[i].compare_exchange_strong(expected, &board,
                                             std::memory_order_acq_rel)) {
        board.entry = i;
        wake_.fetch_add(1, std::memory_order_release);
        wake_.notify_all();
        return true;
      }
    }
    std::atomic_store_explicit(&board.open, false, std::memory_order_release);
    return false;
  }

  void withdraw_board(Board& board) {
    std::atomic_store_explicit(&board.open, false, std::memory_order_release);
    std::atomic_store_explicit(&posted_[board.entry], static_cast<Board*>(nullptr),
                               std::memory_order_release);
  }

  JitterHelpers(const JitterHelpers&) = delete;
  JitterHelpers& operator=(const JitterHelpers&) = delete;

  ~JitterHelpers() {
    std::atomic_store_explicit(&stop_, true, std::memory_order_release);
    wake_.fetch_add(1, std::memory_order_release);
    wake_.notify_all();
    for (auto& t : threads_) t.join();
  }

 private:
  JitterHelpers() {
    const int n = std::min(2, usable_cpus() - 1);
    for (int i = 0; i < n; ++i) {
      try {
        threads_.emplace_back([this] { serve_boards(); });
      } catch (const std::system_error&) {
        break;  // run with the helpers that did start
      }
    }
  }

  /// The open posted board with the fewest helpers on it, or nullptr.
  Board* pick_board() const {
    Board* best = nullptr;
    for (const auto& entry : posted_) {
      Board* b = entry.load(std::memory_order_acquire);
      if (b == nullptr || !b->open.load(std::memory_order_acquire)) continue;
      if (best == nullptr || b->helpers.load(std::memory_order_relaxed) <
                                 best->helpers.load(std::memory_order_relaxed)) {
        best = b;
      }
    }
    return best;
  }

  void serve_boards() {
    for (;;) {
      const std::uint32_t seen = wake_.load(std::memory_order_acquire);
      if (stop_.load(std::memory_order_acquire)) return;
      Board* board = pick_board();
      if (board == nullptr) {
        wake_.wait(seen, std::memory_order_acquire);  // no stream is open
        continue;
      }
      board->helpers.fetch_add(1, std::memory_order_relaxed);
      int idle_polls = 0;
      while (board->open.load(std::memory_order_acquire) &&
             !stop_.load(std::memory_order_relaxed)) {
        if (board->help_one_chunk()) {
          idle_polls = 0;
        } else if (++idle_polls % 64 == 0) {
          std::this_thread::yield();  // share the CPU when oversubscribed
        } else {
          cpu_relax();
        }
      }
      board->helpers.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  static constexpr std::size_t kPostedEntries = 64;

  std::mutex boards_mu_;  ///< Guards all_ and idle_; helpers never take it.
  std::vector<std::unique_ptr<Board>> all_;
  std::vector<Board*> idle_;
  std::array<std::atomic<Board*>, kPostedEntries> posted_{};
  std::atomic<std::uint32_t> wake_{0};  ///< Bumped on every post and at exit.
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace

GaussianStream::~GaussianStream() { end_stream(); }

int GaussianStream::helper_threads() {
  return JitterHelpers::instance().thread_count();
}

bool GaussianStream::worth_streaming(std::size_t count) {
  return count >= kChunkDraws && helper_threads() > 0;
}

void GaussianStream::begin_stream(Rng& rng, std::size_t count) {
  end_stream();
  if (count == 0) return;
  JitterHelpers& pool = JitterHelpers::instance();
  board_ = pool.acquire_board();
  rng_ = &rng;
  undrawn_ = count;
  draw_ahead();
  posted_ = pool.thread_count() > 0 && pool.post_board(*board_);
}

void GaussianStream::draw_ahead() {
  Board& b = *board_;
  while (undrawn_ > 0 && ahead_count_ < kAheadChunks) {
    std::size_t s = 0;
    while (s < kMaxSlots && b.slots[s].state.load(std::memory_order_acquire) != kFree) {
      ++s;
    }
    if (s == kMaxSlots) return;  // every slot busy: draw on demand
    const std::size_t n = std::min(kChunkDraws, undrawn_);
    b.slots[s].start = *rng_;
    rng_->discard(2 * n);
    b.slots[s].count = n;
    std::atomic_store_explicit(&b.slots[s].seq, next_seq_++, std::memory_order_relaxed);
    std::atomic_store_explicit(&b.slots[s].state, kReady, std::memory_order_release);
    ahead_[(ahead_head_ + ahead_count_) % kMaxSlots] = s;
    ++ahead_count_;
    undrawn_ -= n;
  }
}

void GaussianStream::release_held() {
  if (held_ == kMaxSlots) return;
  std::atomic_store_explicit(&board_->slots[held_].state, kFree, std::memory_order_relaxed);
  held_ = kMaxSlots;
}

void GaussianStream::take_chunk() {
  assert(rng_ != nullptr);
  release_held();
  draw_ahead();
  Board& b = *board_;
  pos_ = 0;
  if (ahead_count_ == 0) {
    // Nothing drawn ahead (every slot still held by an orphaned chunk):
    // draw the next chunk straight from the Rng.
    const std::size_t n = std::min(kChunkDraws, undrawn_);
    assert(n > 0);
    for (std::size_t i = 0; i < n; ++i) b.own[i] = rng_->next_gaussian();
    undrawn_ -= n;
    cur_ = b.own.data();
    end_ = n;
    return;
  }
  const std::size_t s = ahead_[ahead_head_];
  ahead_head_ = (ahead_head_ + 1) % kMaxSlots;
  --ahead_count_;
  Board::Slot& slot = b.slots[s];
  end_ = slot.count;
  int state = slot.state.load(std::memory_order_acquire);
  if (state == kReady &&
      slot.state.compare_exchange_strong(state, kTaken, std::memory_order_acquire,
                                         std::memory_order_acquire)) {
    transform_chunk(slot.start, end_, b.own.data());
    std::atomic_store_explicit(&slot.state, kFree, std::memory_order_relaxed);
    cur_ = b.own.data();
    return;
  }
  if (state == kClaimed &&
      slot.state.compare_exchange_strong(state, kOrphaned,
                                         std::memory_order_acquire,
                                         std::memory_order_acquire)) {
    transform_chunk(slot.start, end_, b.own.data());
    cur_ = b.own.data();
    return;
  }
  assert(state == kDone);
  held_ = s;
  cur_ = b.gaussians_of(s);
}

void GaussianStream::end_stream() {
  if (rng_ == nullptr) return;
  JitterHelpers& pool = JitterHelpers::instance();
  if (posted_) {
    pool.withdraw_board(*board_);
    posted_ = false;
  }
  release_held();
  for (; ahead_count_ > 0; --ahead_count_) {
    auto& state = board_->slots[ahead_[ahead_head_]].state;
    ahead_head_ = (ahead_head_ + 1) % kMaxSlots;
    int s = state.load(std::memory_order_acquire);
    if (s == kReady && state.compare_exchange_strong(s, kFree)) continue;
    if (s == kClaimed && state.compare_exchange_strong(s, kOrphaned)) continue;
    std::atomic_store_explicit(&state, kFree, std::memory_order_relaxed);  // Done
  }
  ahead_head_ = 0;
  pool.release_board(board_);
  board_ = nullptr;
  rng_ = nullptr;
  undrawn_ = 0;
  cur_ = nullptr;
  pos_ = end_ = 0;
}

}  // namespace pcm::sim
