#pragma once

#include <vector>

#include "lint.hpp"
#include "sema.hpp"

// pcm::lint::flow — the flow-aware rule built on cfg.hpp/dataflow.hpp.
//
//   cost-overflow    an assignment/compound-assignment whose RHS contains a
//                    multiplication or shift, whose 64-bit interval at
//                    p <= 2^20 provably exceeds the destination's declared
//                    narrow (<= 32-bit) integer type. Explicit static_casts
//                    do NOT exempt: truncating a proven-too-big product is
//                    the bug, however it is spelled. (Plain implicit
//                    narrowing is the compiler's job: -Werror=conversion.)
//
// The rule only claims what the interval domain *proves*: unknown values
// are top and silent. Diagnostics are unfiltered (the caller applies
// per-file suppressions) and unordered (the caller sorts), matching
// callgraph::determinism_taint.

namespace pcm::lint::flow {

/// Run cost-overflow over the full parse set.
[[nodiscard]] std::vector<Diagnostic> cost_overflow(
    const std::vector<sema::TranslationUnit>& tus);

}  // namespace pcm::lint::flow
