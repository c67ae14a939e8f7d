#pragma once

#include <vector>

#include "lint.hpp"
#include "sema.hpp"

// pcm::lint::flow — the three flow-aware rules built on cfg.hpp/dataflow.hpp.
//
//   cost-overflow    an assignment/compound-assignment whose RHS contains a
//                    multiplication or shift, whose 64-bit interval at
//                    p <= 2^20 provably exceeds the destination's declared
//                    narrow (<= 32-bit) integer type. Explicit static_casts
//                    do NOT exempt: truncating a proven-too-big product is
//                    the bug, however it is spelled. (Plain implicit
//                    narrowing is the compiler's job: -Werror=conversion.)
//
//   hot-path-alloc   an allocation (new / make_unique / make_shared /
//                    std::string construction / to_string) or un-reserved
//                    container growth (push_back / emplace* / insert /
//                    append with no `recv.reserve(` anywhere in the TU) in
//                    a function reachable from a route()/exchange()/
//                    barrier()/charge*() root in src/net/ or src/machines/,
//                    on a block that is neither cold (diagnostics-gated or
//                    catch/throw funnel) nor throw-terminated. Reachability
//                    is the callgraph's simple-name link — this supersedes
//                    guessing hotness from the function's own name alone.
//
//   throw-leak       in src/exec/ and src/fault/: a resource acquired via
//                    a tracked pair (fopen/fclose, open/close,
//                    watch/unwatch, lock/unlock, acquire/release) still
//                    held (Acquired or Maybe) when a throw leaves the
//                    function. Only fires in functions that call *both*
//                    sides of a pair somewhere — pure-RAII code never calls
//                    the release side manually and stays silent.
//
// All three only claim what the interval/resource domains *prove*: unknown
// values are top and silent. Diagnostics are unfiltered (the caller applies
// per-file suppressions) and unordered (the caller sorts), matching
// callgraph::determinism_taint.

namespace pcm::lint::flow {

/// Run all three rules over the full parse set.
[[nodiscard]] std::vector<Diagnostic> run_flow_rules(
    const std::vector<sema::TranslationUnit>& tus);

}  // namespace pcm::lint::flow
