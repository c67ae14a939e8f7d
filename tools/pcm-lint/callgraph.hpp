#pragma once

#include <string>
#include <vector>

#include "lint.hpp"
#include "sema.hpp"

// pcm::lint::callgraph — the cross-TU linking pass and the
// determinism-taint rule built on it.
//
// Linking is by simple name: a call to `f` resolves to every parsed
// definition of `f` (overloads and same-named methods merge into one node —
// conservative, which is the right polarity for a linter). Definitions in
// host-exempt trees (src/exec/, tools/) neither seed nor propagate taint:
// exec is the one component allowed to read host time, and its public API
// is deterministic by contract, so taint must not leak through it to
// callers.
//
// determinism-taint: a function is tainted when its body calls a wallclock/
// randomness primitive directly (the seed — already flagged line-locally by
// the `wallclock` rule) or calls any tainted function (the transitive
// closure the line rule cannot see). Diagnostics land on each call site to
// a tainted *function* in non-exempt code, carrying the taint chain down to
// the primitive, e.g. `warmup_bias -> jitter_scale -> host_entropy ->
// time()`.

namespace pcm::lint::callgraph {

/// Run the determinism-taint rule over the full parse set. Diagnostics are
/// unfiltered (the caller applies per-file suppressions) and unordered (the
/// caller sorts).
[[nodiscard]] std::vector<Diagnostic> determinism_taint(
    const std::vector<sema::TranslationUnit>& tus);

}  // namespace pcm::lint::callgraph
