#include "algos/cannon.hpp"

#include <cassert>
#include <utility>

#include "algos/local/matmul_kernel.hpp"
#include "runtime/grid.hpp"

namespace pcm::algos {

int cannon_side(const machines::MasParXnetMachine& m) {
  return m.xnet().params().width;
}

namespace {

// Rotate per-processor blocks within every grid row (dx = -1: left) or
// column (dy = -1: up) by `amount`, charging the xnet and moving real data.
template <typename T>
void rotate(machines::MasParXnetMachine& m, std::vector<std::vector<T>>& blocks,
            int s, int amount, bool rows, long bytes) {
  if (amount == 0) return;
  m.xnet_offset_shift(rows ? amount : 0, rows ? 0 : amount, bytes);
  std::vector<std::vector<T>> next(blocks.size());
  for (int r = 0; r < s; ++r) {
    for (int c = 0; c < s; ++c) {
      const int src = r * s + c;
      const int dst = rows ? r * s + ((c - amount) % s + s) % s
                           : (((r - amount) % s + s) % s) * s + c;
      next[static_cast<std::size_t>(dst)] = std::move(blocks[static_cast<std::size_t>(src)]);
    }
  }
  blocks.swap(next);
}

// Skew: row/column i rotated by i, realised as power-of-two masked shifts
// (rows with bit k of i set move by 2^k). Every PE pays every step (SIMD).
template <typename T>
void skew(machines::MasParXnetMachine& m, std::vector<std::vector<T>>& blocks,
          int s, bool rows, long bytes) {
  for (int step = 1; step < s; step <<= 1) {
    m.xnet_offset_shift(rows ? step : 0, rows ? 0 : step, bytes);
    std::vector<std::vector<T>> next(blocks.size());
    for (int r = 0; r < s; ++r) {
      for (int c = 0; c < s; ++c) {
        const int line = rows ? r : c;  // the index that decides the mask
        const int src = r * s + c;
        int dst = src;
        if (line & step) {
          dst = rows ? r * s + ((c - step) % s + s) % s
                     : (((r - step) % s + s) % s) * s + c;
        }
        next[static_cast<std::size_t>(dst)] = std::move(blocks[static_cast<std::size_t>(src)]);
      }
    }
    blocks.swap(next);
  }
}

}  // namespace

template <typename T>
CannonResult<T> run_cannon(machines::MasParXnetMachine& m,
                           const std::vector<T>& a, const std::vector<T>& b,
                           int n) {
  const int s = cannon_side(m);
  assert(n % s == 0 && "N must be divisible by the grid side");
  const int M = n / s;
  // w*M^2 overflows int once M >= 16384/sqrt(w): widen before multiplying.
  const long block_bytes =
      static_cast<long>(M) * M * static_cast<long>(sizeof(T));

  m.reset();

  // Distribute M x M blocks.
  auto carve = [&](const std::vector<T>& src) {
    std::vector<std::vector<T>> blocks(static_cast<std::size_t>(s) * s);
    for (int r = 0; r < s; ++r) {
      for (int c = 0; c < s; ++c) {
        auto& blk = blocks[static_cast<std::size_t>(r) * s + c];
        blk.resize(static_cast<std::size_t>(M) * M);
        for (int i = 0; i < M; ++i) {
          for (int j = 0; j < M; ++j) {
            blk[static_cast<std::size_t>(i) * M + j] =
                src[(static_cast<long>(r) * M + i) * n + (static_cast<long>(c) * M + j)];
          }
        }
      }
    }
    return blocks;
  };
  auto ablocks = carve(a);
  auto bblocks = carve(b);
  std::vector<std::vector<T>> cblocks(static_cast<std::size_t>(s) * s);
  for (auto& blk : cblocks) blk.assign(static_cast<std::size_t>(M) * M, T{});

  // Initial skew.
  skew(m, ablocks, s, /*rows=*/true, block_bytes);
  skew(m, bblocks, s, /*rows=*/false, block_bytes);

  // s iterations of multiply-accumulate + unit rotations.
  for (int it = 0; it < s; ++it) {
    sim::Micros worst = 0.0;
    for (int p = 0; p < s * s; ++p) {
      const sim::Micros cost = matmul_charged<T>(
          ablocks[static_cast<std::size_t>(p)], bblocks[static_cast<std::size_t>(p)],
          cblocks[static_cast<std::size_t>(p)], M, M, M, m.compute());
      worst = std::max(worst, cost);
    }
    m.charge_all(worst);  // SIMD lock-step: the slowest PE gates everyone.
    if (it + 1 < s) {
      rotate(m, ablocks, s, 1, /*rows=*/true, block_bytes);
      rotate(m, bblocks, s, 1, /*rows=*/false, block_bytes);
    }
  }

  CannonResult<T> out;
  out.time = m.now();
  out.c.resize(static_cast<std::size_t>(n) * n);
  for (int r = 0; r < s; ++r) {
    for (int c = 0; c < s; ++c) {
      const auto& blk = cblocks[static_cast<std::size_t>(r) * s + c];
      for (int i = 0; i < M; ++i) {
        for (int j = 0; j < M; ++j) {
          out.c[(static_cast<long>(r) * M + i) * n + (static_cast<long>(c) * M + j)] =
              blk[static_cast<std::size_t>(i) * M + j];
        }
      }
    }
  }
  out.mflops = 2.0 * static_cast<double>(n) * n * n / out.time;
  return out;
}

template CannonResult<float> run_cannon<float>(machines::MasParXnetMachine&,
                                               const std::vector<float>&,
                                               const std::vector<float>&, int);

sim::Micros predict_cannon(const machines::MasParXnetMachine& m, long n,
                           int word_bytes) {
  const int s = cannon_side(m);
  const long M = n / s;
  const long block_bytes = M * M * word_bytes;
  const auto& xnet = m.xnet();
  sim::Micros skew_cost = 0.0;
  for (int step = 1; step < s; step <<= 1) {
    skew_cost += 2.0 * xnet.shift_cost(step, block_bytes);
  }
  const sim::Micros rotations =
      2.0 * (s - 1) * xnet.shift_cost(1, block_bytes);
  const double compute = m.compute().alpha * static_cast<double>(n) *
                         static_cast<double>(n) * static_cast<double>(n) /
                         (static_cast<double>(s) * s);
  return compute + skew_cost + rotations;
}

}  // namespace pcm::algos
