#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "machines/machine.hpp"
#include "sim/time.hpp"

// Sample sort (paper Section 4.3, after Blelloch et al.):
//   Phase 1 (splitters): every processor draws S random samples; the P*S
//     samples are sorted with bitonic sort; the samples at ranks S, 2S, ...
//     become the P-1 splitters and are broadcast to everyone;
//   Phase 2 (send): local radix sort, bucket boundaries by a linear
//     splitter walk (Theta(M + P)), a multi-scan to compute receive
//     addresses, then the keys are routed to their buckets;
//   Phase 3: every processor radix-sorts its bucket.
//
// Variants (Fig 18):
//   - Bpram: fully single-port — the splitter broadcast and the multi-scan
//     use the sqrt(P)-transpose schemes, and the send phase uses the
//     [JaJa-Ryu]-style fixed-size two-dimensional routing (4*sqrt(P) block
//     steps of capacity 4M/sqrt(P)); its large constant is why sample sort
//     fails to beat bitonic sort on the GCel;
//   - StaggeredPacked: the send phase instead packs all keys for the same
//     bucket into one message and sends the P-1 packs staggered in a single
//     pipelined step (violating the single-port restriction; ~2x faster).

namespace pcm::algos {

enum class SampleSortVariant { Bpram, StaggeredPacked };

[[nodiscard]] std::string_view to_string(SampleSortVariant v);

struct SampleSortResult {
  std::vector<std::uint32_t> keys;  ///< Globally sorted output.
  sim::Micros time = 0;
  sim::Micros time_per_key = 0;
  long max_bucket = 0;  ///< M_max, the largest bucket routed.
};

/// Sort `keys` on the machine (P must be a perfect square and a power of
/// two, e.g. 64; see check_samplesort_procs). `oversampling` is the paper's
/// S. The machine is reset first.
SampleSortResult run_samplesort(machines::Machine& m,
                                const std::vector<std::uint32_t>& keys,
                                int oversampling, SampleSortVariant v);

/// Throws std::invalid_argument unless `procs` is a perfect square and a
/// power of two (a power of four): sample sort sorts its samples with
/// bitonic sort and runs its single-port phases on a sqrt(P) x sqrt(P) grid.
void check_samplesort_procs(int procs);

}  // namespace pcm::algos
