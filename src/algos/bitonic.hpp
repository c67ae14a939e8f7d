#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "machines/machine.hpp"
#include "sim/time.hpp"

// Batcher's bitonic sort with N/P keys per processor (paper Section 4.2):
// local radix sort, then log P merge stages; stage d has d steps; in step j
// of stage d every processor exchanges its whole sorted run with the partner
// across bit (d-j) and keeps the lower or upper half of the merge.
//
// Variants (the paper measures all three):
//   - MpBsp: one key per processor per communication step (M bit-flip
//     permutations per merge step) — the MasPar formulation whose measured
//     time beats the model by ~2x thanks to the conflict-free router
//     patterns (Fig 5);
//   - Bsp:   pipelined word messages, one exchange per merge step, no
//     barriers — on the GCel this drifts out of sync (Fig 6);
//   - BspSynchronized: like Bsp but a barrier is inserted whenever a
//     processor has sent ~256 messages since the last one (the paper's fix);
//   - Bpram: one block message per processor per merge step, synchronous
//     (Figs 10, 11).

namespace pcm::algos {

enum class BitonicVariant { MpBsp, Bsp, BspSynchronized, Bpram };

[[nodiscard]] std::string_view to_string(BitonicVariant v);

struct BitonicResult {
  std::vector<std::uint32_t> keys;  ///< Globally sorted output.
  sim::Micros time = 0;
  sim::Micros time_per_key = 0;     ///< time / (N/P), the paper's y-axis.
};

/// Sort `keys` (size must be a multiple of P; P must be a power of two).
/// The machine is reset first.
BitonicResult run_bitonic(machines::Machine& m,
                          const std::vector<std::uint32_t>& keys,
                          BitonicVariant v);

/// Throws std::invalid_argument unless `procs` is a power of two, the
/// machine sizes bitonic sort can pair up.
void check_bitonic_procs(int procs);

/// In-place bitonic sort of per-processor runs (equal sizes) WITHOUT
/// resetting the machine — the building block sample sort's splitter phase
/// uses. Includes the local sort.
void bitonic_core(machines::Machine& m,
                  std::vector<std::vector<std::uint32_t>>& runs,
                  BitonicVariant v);

}  // namespace pcm::algos
