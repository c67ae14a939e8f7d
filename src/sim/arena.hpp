#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "sim/check.hpp"

// sim::Arena — a per-superstep bump allocator for router scratch and
// runtime payloads.
//
// The simulator hot loop (charge / exchange / barrier) must be
// allocation-free in steady state: a router routes thousands of patterns per
// sweep cell, and a malloc per phase per call dominates once the simulated
// machines grow past the paper's 1996 sizes. Routers own an Arena, call
// reset() at the top of route(), and carve typed spans out of it for
// whatever per-call scratch they need (in-flight message lists, heap
// storage, cursor tables); a runtime::Exchange stages its payloads in one.
// reset() is O(1) and keeps every previously grown chunk, so after the
// first few calls the loop allocates nothing.
//
// Only trivially destructible element types are allowed (nothing is ever
// destroyed, only forgotten), and spans handed out stay valid until the next
// reset() — chunks are never reallocated, a full chunk simply chains a new
// one.

namespace pcm::sim {

class Arena {
 public:
  explicit Arena(std::size_t first_chunk_bytes = 1 << 14)
      : first_chunk_bytes_(first_chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialised storage for `n` elements of T. Valid until reset().
  template <typename T>
  [[nodiscard]] std::span<T> alloc(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is never destroyed");
    if (n == 0) return {};
    const std::size_t bytes = n * sizeof(T);
    void* p = raw_alloc(bytes, alignof(T));
    return {static_cast<T*>(p), n};
  }

  /// Storage for `n` elements of T, value-initialised (zeroed for scalars).
  template <typename T>
  [[nodiscard]] std::span<T> alloc_zeroed(std::size_t n) {
    auto s = alloc<T>(n);
    for (auto& v : s) v = T{};
    return s;
  }

  /// Forget every allocation; capacity is retained. O(chunks), not O(bytes).
  void reset() {
    cursor_chunk_ = 0;
    cursor_used_ = 0;
  }

  /// Bytes of backing storage currently owned (for tests / introspection).
  [[nodiscard]] std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const auto& c : chunks_) total += c.size;
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void* raw_alloc(std::size_t bytes, std::size_t align) {
    while (cursor_chunk_ < chunks_.size()) {
      Chunk& c = chunks_[cursor_chunk_];
      const std::size_t aligned =
          (cursor_used_ + align - 1) & ~(align - 1);
      if (aligned + bytes <= c.size) {
        cursor_used_ = aligned + bytes;
        return c.data.get() + aligned;
      }
      ++cursor_chunk_;
      cursor_used_ = 0;
    }
    // Grow: geometric chunk sizing up to kMaxGrowBytes, never smaller than
    // the request. The cap keeps chunks the size of ordinary heap blocks:
    // doubling without one, an arena that stages megabytes (a word-mode
    // runtime Exchange) interleaves ever larger chunks with its
    // CommPattern's own doubling, and the fragmented heap raised the peak
    // RSS of three back-to-back CM-5 matmuls (figbench fig16) by a tenth.
    std::size_t size =
        chunks_.empty() ? first_chunk_bytes_
                        : std::min(chunks_.back().size * 2, kMaxGrowBytes);
    if (size < bytes + align) size = bytes + align;
    chunks_.push_back(Chunk{std::make_unique<std::byte[]>(size), size});
    cursor_chunk_ = chunks_.size() - 1;
    const std::size_t base =
        reinterpret_cast<std::uintptr_t>(chunks_.back().data.get());
    // make_unique<std::byte[]> is max-aligned, but keep the math honest.
    const std::size_t aligned = ((base + align - 1) & ~(align - 1)) - base;
    PCM_CHECK(aligned + bytes <= size);
    cursor_used_ = aligned + bytes;
    return chunks_.back().data.get() + aligned;
  }

  static constexpr std::size_t kMaxGrowBytes = std::size_t{1} << 18;  // 256 KiB

  std::size_t first_chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t cursor_chunk_ = 0;
  std::size_t cursor_used_ = 0;
};

}  // namespace pcm::sim
