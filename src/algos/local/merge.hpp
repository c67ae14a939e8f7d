#pragma once

#include <cstdint>
#include <span>
#include <vector>

// The linear-time sequential merge step of bitonic sort with multiple keys
// per processor (Section 4.2): each processor merges its sorted run with the
// partner's and keeps either the lower or the upper half.

namespace pcm::algos {

/// Merge two sorted runs of equal length m and write the lowest m keys to
/// `out`, which is resized to m and keeps its capacity. `out` must not
/// alias either run.
void merge_keep_low(std::span<const std::uint32_t> a,
                    std::span<const std::uint32_t> b,
                    std::vector<std::uint32_t>& out);

/// Merge two sorted runs of equal length m and write the highest m keys (in
/// ascending order) to `out`, as merge_keep_low does.
void merge_keep_high(std::span<const std::uint32_t> a,
                     std::span<const std::uint32_t> b,
                     std::vector<std::uint32_t>& out);

}  // namespace pcm::algos
